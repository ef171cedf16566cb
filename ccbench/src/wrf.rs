//! `wrf_slp`: the Fig. 13 WRF min-sea-level-pressure task, collective
//! computing against the traditional read-then-compute baseline.
//!
//! 64 ranks on 3 nodes x 24 cores read spatial south-north bands of the
//! `slp` variable (every band recurs once per time step, so every rank's
//! request is finely interleaved with every other's) and fold a
//! `MinLocKernel`. The file is the paper's 100 GB point at 1/1000 real
//! scale against a model scaled by the same factor. The seed permutes
//! which rank analyses which band.

use std::sync::Arc;

use cc_array::Hyperslab;
use cc_core::{object_get_vara, CcReport, MinLocKernel, ObjectIo, ReduceMode};
use cc_model::ClusterModel;
use cc_mpi::World;
use cc_mpiio::{Hints, OffsetList};
use cc_pfs::Pfs;
use cc_workloads::{WrfGrid, WrfWorkload};

use crate::common::{intervals, union_len, PfsTotals};
use crate::harness::{Checks, PassSummary, Scale, Setup, Workload};
use crate::metrics::Layers;
use crate::replay;
use crate::spmd::{self, BaseRank, CcRank, OSTS};
use crate::stats::{CpuTimer, Rng};
use crate::trace::{run_ranks, Trace, Tracing};

/// Scales a model for a file `scale` times smaller than the one it stands
/// for: bandwidths divide by `scale`, and the per-piece, per-message and
/// per-element costs whose counts shrink with the data grow by it, so the
/// virtual times keep the paper's magnitudes.
fn scaled_model(base: &ClusterModel, scale: f64) -> ClusterModel {
    let mut m = base.clone();
    m.disk.ost_bandwidth /= scale;
    m.net.bw_intra /= scale;
    m.net.bw_inter /= scale;
    m.net.scatter_overhead *= scale;
    m.net.msg_overhead_intra *= scale;
    m.net.msg_overhead_inter *= scale;
    m.cpu.map_cost_per_byte *= scale;
    m.cpu.memcpy_cost_per_byte *= scale;
    m.cpu.metadata_cost_per_entry *= scale;
    m.cpu.reduce_cost_per_element *= scale;
    m
}

/// The workload and its seeded inputs.
pub struct WrfSlp {
    grid: WrfGrid,
    nprocs: usize,
    model: ClusterModel,
    hints: Hints,
    /// Band analysed by each rank (a seeded permutation).
    bands: Vec<usize>,
    oracle: (f64, u64),
    oracle_host_s: f64,
}

impl WrfSlp {
    /// The workload at `scale` for `seed`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (nprocs, sn, cores, times): (usize, u64, usize, u64) = match scale {
            // 100 virtual GB = 100 MiB real: 100 steps of a 256 x 512 grid.
            Scale::Full => (64, 256, 24, 100),
            Scale::Small => (8, 64, 8, 8),
        };
        let grid = WrfGrid {
            times,
            sn,
            we: sn * 2,
        };
        let mut base = ClusterModel::hopper_like(nprocs.div_ceil(cores), cores);
        // A branchy min+location kernel sustains a few hundred MB/s per
        // core, well below a streaming sum.
        base.cpu.map_cost_per_byte = 2.2e-9;
        let model = scaled_model(&base, 1000.0);
        let hints = Hints {
            cb_buffer_size: 4 << 20,
            aggregators_per_node: 1,
            ..Hints::default()
        };
        let bands = Rng::new(seed, 1).permutation(nprocs);
        let t = CpuTimer::start();
        let oracle = WrfWorkload::new(grid, nprocs, 1 << 20, 40).oracle_slp_min();
        let oracle_host_s = t.secs();
        Self {
            grid,
            nprocs,
            model,
            hints,
            bands,
            oracle,
            oracle_host_s,
        }
    }

    fn generator(&self) -> WrfWorkload {
        WrfWorkload::new(self.grid, self.nprocs, 1 << 20, 40)
    }

    fn slabs(&self, wrf: &WrfWorkload) -> Vec<Hyperslab> {
        self.bands.iter().map(|&b| wrf.band_slab(b)).collect()
    }
}

/// Inputs of one pass: the generator and one fresh file system per mode.
pub struct Input {
    wrf: WrfWorkload,
    fs_cc: Arc<Pfs>,
    fs_base: Arc<Pfs>,
}

/// What one pass returns.
pub struct Output {
    cc: Vec<CcRank>,
    base: Vec<BaseRank>,
    pfs: PfsTotals,
}

impl Workload for WrfSlp {
    type Input = Input;
    type Output = Output;

    fn logical_bytes(&self) -> u64 {
        // CC and the baseline each read the whole slp variable.
        2 * self.grid.elements() * 8
    }

    fn reference_host_s(&self) -> f64 {
        self.oracle_host_s
    }

    fn setup(&self, _pass: u64) -> Setup<Input> {
        let t = CpuTimer::start();
        let wrf = self.generator();
        let disk = self.model.disk.clone();
        let input = Input {
            fs_cc: wrf.build_fs(OSTS, disk.clone()),
            fs_base: wrf.build_fs(OSTS, disk),
            wrf,
        };
        Setup {
            input,
            build_s: t.secs(),
        }
    }

    fn pass(&self, input: Input, mut tracing: Tracing<'_>) -> Output {
        let Input {
            wrf,
            fs_cc,
            fs_base,
        } = input;
        let world = World::new(self.nprocs, self.model.clone());
        let var = wrf.slp_var();
        let slabs = self.slabs(&wrf);
        let file = fs_cc
            .open(WrfWorkload::FILE)
            .expect("set-up created the WRF file");
        let cc = run_ranks(&world, &mut tracing, |comm, spans| {
            let slab = &slabs[comm.rank()];
            let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
                .hints(self.hints.clone())
                .reduce(ReduceMode::AllToOne { root: 0 });
            let before = comm.stats();
            let out = spans.call("cc_core::object_get_vara", comm, |c| {
                object_get_vara(c, &fs_cc, &file, var, &io, &MinLocKernel)
            });
            CcRank {
                report: out.report,
                global: out.global,
                comm: comm.stats().delta(&before),
            }
        });
        let base = spmd::run_baseline(
            &world,
            &mut tracing,
            &fs_base,
            WrfWorkload::FILE,
            var,
            &slabs,
            &self.hints,
            &MinLocKernel,
        );
        Output {
            cc,
            base,
            pfs: PfsTotals::of(&fs_cc),
        }
    }

    fn check(&self, out: &Output, checks: &mut Checks) {
        let cc = out.cc.iter().find_map(|r| r.global.clone());
        let base = out.base.iter().find_map(|r| r.global.clone());
        checks.check(cc.is_some() && cc == base, || {
            format!("CC minimum {cc:?} differs from the baseline's {base:?}")
        });
        let (want_v, want_i) = self.oracle;
        let ok = cc
            .as_ref()
            .is_some_and(|g| g.len() == 2 && (g[0] - want_v).abs() < 1e-9 && g[1] == want_i as f64);
        checks.check(ok, || {
            format!("CC minimum {cc:?} differs from the oracle ({want_v}, {want_i})")
        });
    }

    fn summarize(&self, out: &Output) -> PassSummary {
        let end = |r: &CcReport| r.end.secs();
        let last = out
            .cc
            .iter()
            .max_by(|a, b| end(&a.report).total_cmp(&end(&b.report)))
            .expect("at least one rank");
        let virt_s = end(&last.report);
        let start = last.report.start.secs();
        let mut layers = Layers::default();
        let cc: Vec<&CcRank> = out.cc.iter().collect();
        spmd::set_layers(&mut layers, &cc, &out.base);
        out.pfs.set(&mut layers, self.grid.elements() * 8);
        layers.set(
            "trace.virt_unattributed_s",
            virt_s - start - union_len(intervals(&last.report.segments), start, virt_s),
        );
        layers.set("mpiio.plan_misses", 2.0);
        let (baseline_virt_s, baseline_task_p50) = spmd::baseline_times(&out.base);
        PassSummary {
            virt_s,
            analysis_virt_s: virt_s,
            baseline_virt_s,
            baseline_task_p50,
            task_lat: out.cc.iter().map(|r| r.report.elapsed().secs()).collect(),
            // The one query is the global minimum, ready at the root.
            query_lat: vec![end(&out.cc[0].report)],
            layers,
        }
    }

    fn replays(&self, trace: &mut Trace, layers: &mut Layers) {
        let wrf = self.generator();
        let var = wrf.slp_var();
        let slabs: Vec<_> = self.slabs(&wrf).into_iter().map(|s| (var, s)).collect();
        let (host, extents) = replay::flatten(trace, &slabs);
        layers.set("array.flatten_host_s", host);
        layers.set("array.extents", extents as f64);
        layers.set(
            "mpi.world_host_s",
            replay::world(trace, self.nprocs, &self.model),
        );
        let requests: Vec<OffsetList> = slabs.iter().map(|(v, s)| v.byte_extents(s)).collect();
        let (virt, host) = replay::exchange(trace, &self.model, &requests);
        layers.set("mpiio.exchange_virt_s", virt);
        layers.set("mpiio.exchange_host_s", host);
        let fs = wrf.build_fs(OSTS, self.model.disk.clone());
        let file = fs
            .open(WrfWorkload::FILE)
            .expect("build_fs created the WRF file");
        let hints = replay::engine_hints(&self.hints, &file);
        let (host, schedules) =
            replay::plan(trace, &[(requests, self.model.topology.clone())], &hints);
        layers.set("mpiio.plan_host_s", host);
        let rm = replay::read_and_map(trace, &fs, &file, &schedules[0], var, &MinLocKernel);
        layers.set("pfs.read_host_s", rm.read_host_s);
        layers.set("core.map_host_s", rm.map_host_s);
        layers.set("core.map_bytes", rm.map_bytes as f64);
    }
}
