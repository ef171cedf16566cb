//! `climate_rw`: the Fig. 9 interleaved 3-D climate read at a 1:1
//! computation:I/O ratio, collective computing against the traditional
//! baseline, followed by a compressed collective write-back.
//!
//! 120 ranks on 5 nodes x 24 cores each read two latitude rows of every
//! row of the variable, so every 1 MB collective-buffer chunk scatters to
//! nearly every rank. The per-byte map cost is calibrated in set-up so the
//! baseline's compute phase costs as much as its I/O. After the CC read
//! each rank writes its slab back to an in-memory file with
//! `collective_write` under `Compression::Lossless`; the benchmark reads
//! the file back and compares it byte for byte. The seed permutes which
//! rank analyses which slab.

use std::sync::Arc;
use std::time::Duration;

use cc_array::Hyperslab;
use cc_compress::{decode_into, encode_into, Compression};
use cc_core::{object_get_vara, ObjectIo, ReduceMode, SumKernel};
use cc_model::{ClusterModel, SimTime};
use cc_mpi::World;
use cc_mpiio::{collective_read, collective_write, Hints, OffsetList, WriteReport};
use cc_pfs::{MemBackend, Pfs, StripeLayout};
use cc_workloads::ClimateWorkload;

use crate::common::{intervals, union_len, wait_secs, PfsTotals};
use crate::harness::{time_per_call, Checks, PassSummary, Scale, Setup, Workload};
use crate::metrics::Layers;
use crate::replay;
use crate::spmd::{self, BaseRank, CcRank, OSTS};
use crate::stats::{CpuTimer, Rng};
use crate::trace::{run_ranks, Trace, Tracing};

/// Name of the write-back file.
const OUT_FILE: &str = "climate_out.nc";

/// Relative tolerance of the per-rank sums against the oracle.
const REL: f64 = 1e-9;

/// Shape of the interleaved variable and the cluster.
#[derive(Debug, Clone, Copy)]
struct Shape {
    nprocs: usize,
    rows: u64,
    lat_per_rank: u64,
    lon: u64,
    stripe_size: u64,
    stripe_count: usize,
    nodes: usize,
    cores: usize,
}

/// The workload and its seeded inputs.
pub struct ClimateRw {
    shape: Shape,
    base_model: ClusterModel,
    hints: Hints,
    write_hints: Hints,
    /// Slab analysed by each rank (a seeded permutation).
    slabs: Vec<usize>,
    /// Oracle sum of each slab.
    oracle: Vec<f64>,
    oracle_host_s: f64,
}

impl ClimateRw {
    /// The workload at `scale` for `seed`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let shape = match scale {
            // Per rank 128 x 2 x 512 f64 = 1 MiB; 256 KiB stripes spread
            // every chunk over four OSTs.
            Scale::Full => Shape {
                nprocs: 120,
                rows: 128,
                lat_per_rank: 2,
                lon: 512,
                stripe_size: 256 << 10,
                stripe_count: 156,
                nodes: 5,
                cores: 24,
            },
            Scale::Small => Shape {
                nprocs: 24,
                rows: 16,
                lat_per_rank: 2,
                lon: 128,
                stripe_size: 64 << 10,
                stripe_count: 16,
                nodes: 3,
                cores: 8,
            },
        };
        let hints = Hints {
            cb_buffer_size: 1 << 20,
            aggregators_per_node: 1,
            align_domains_to: Some(shape.stripe_size),
            ..Hints::default()
        };
        let write_hints = Hints {
            compression: Compression::Lossless,
            ..hints.clone()
        };
        let slabs = Rng::new(seed, 2).permutation(shape.nprocs);
        let t = CpuTimer::start();
        let w = Self::generator(&shape);
        let oracle = (0..shape.nprocs).map(|i| w.oracle_sum(i)).collect();
        let oracle_host_s = t.secs();
        Self {
            shape,
            base_model: ClusterModel::hopper_like(shape.nodes, shape.cores),
            hints,
            write_hints,
            slabs,
            oracle,
            oracle_host_s,
        }
    }

    fn generator(s: &Shape) -> ClimateWorkload {
        ClimateWorkload::interleaved_3d(
            s.nprocs,
            s.rows,
            s.lat_per_rank,
            s.lon,
            s.stripe_size,
            s.stripe_count,
        )
    }

    fn slabs(&self, w: &ClimateWorkload) -> Vec<Hyperslab> {
        self.slabs.iter().map(|&i| w.slab(i).clone()).collect()
    }

    fn requests(&self, w: &ClimateWorkload) -> Vec<OffsetList> {
        self.slabs(w)
            .iter()
            .map(|s| w.var().byte_extents(s))
            .collect()
    }

    /// Calibrates the per-byte map cost so the baseline's compute phase
    /// costs `ratio` times its I/O phase: a collective read with free
    /// compute measures the I/O time (the paper's Fig. 9 knob).
    fn calibrate(&self, w: &ClimateWorkload, ratio: f64) -> ClusterModel {
        let mut probe = self.base_model.clone();
        probe.cpu.map_cost_per_byte = 0.0;
        let fs = w.build_fs(OSTS, probe.disk.clone());
        let requests = self.requests(w);
        let ends = World::new(self.shape.nprocs, probe).run(|comm| {
            let file = fs
                .open(ClimateWorkload::FILE)
                .expect("build_fs created the climate file");
            collective_read(comm, &fs, &file, &requests[comm.rank()], &self.hints)
                .1
                .end
        });
        let t_io = ends.into_iter().max().expect("at least one rank");
        let per_rank_bytes = w.requested_bytes() as f64 / self.shape.nprocs as f64;
        let mut model = self.base_model.clone();
        model.cpu.map_cost_per_byte = ratio * t_io.secs() / per_rank_bytes;
        model
    }

    fn build_fs(&self, w: &ClimateWorkload) -> Arc<Pfs> {
        w.build_fs(OSTS, self.base_model.disk.clone())
    }
}

/// Inputs of one pass.
pub struct Input {
    w: ClimateWorkload,
    model: ClusterModel,
    fs_cc: Arc<Pfs>,
    fs_base: Arc<Pfs>,
}

/// One rank's observations on the main path.
struct MainRank {
    cc: CcRank,
    per_rank: Option<Vec<Option<Vec<f64>>>>,
    write: WriteReport,
}

/// What one pass returns.
pub struct Output {
    w: ClimateWorkload,
    main: Vec<MainRank>,
    base: Vec<BaseRank>,
    fs_cc: Arc<Pfs>,
    pfs: PfsTotals,
}

impl Workload for ClimateRw {
    type Input = Input;
    type Output = Output;

    fn logical_bytes(&self) -> u64 {
        // CC read, baseline read and the write-back.
        3 * Self::generator(&self.shape).requested_bytes()
    }

    fn reference_host_s(&self) -> f64 {
        self.oracle_host_s
    }

    fn setup(&self, _pass: u64) -> Setup<Input> {
        let t = CpuTimer::start();
        let w = Self::generator(&self.shape);
        let fs_cc = self.build_fs(&w);
        let fs_base = self.build_fs(&w);
        fs_cc.create(
            OUT_FILE,
            StripeLayout::round_robin(self.shape.stripe_size, self.shape.stripe_count, 0, OSTS),
            Box::new(MemBackend::zeroed(w.var().end_offset() as usize)),
        );
        let build_s = t.secs();
        let model = self.calibrate(&w, 1.0);
        Setup {
            input: Input {
                w,
                model,
                fs_cc,
                fs_base,
            },
            build_s,
        }
    }

    fn pass(&self, input: Input, mut tracing: Tracing<'_>) -> Output {
        let Input {
            w,
            model,
            fs_cc,
            fs_base,
        } = input;
        let world = World::new(self.shape.nprocs, model);
        let var = w.var();
        let slabs = self.slabs(&w);
        let file = fs_cc
            .open(ClimateWorkload::FILE)
            .expect("set-up created the climate file");
        let out_file = fs_cc
            .open(OUT_FILE)
            .expect("set-up created the write-back file");
        let main = run_ranks(&world, &mut tracing, |comm, spans| {
            let slab = &slabs[comm.rank()];
            let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
                .hints(self.hints.clone())
                .reduce(ReduceMode::AllToOne { root: 0 });
            let before = comm.stats();
            let out = spans.call("cc_core::object_get_vara", comm, |c| {
                object_get_vara(c, &fs_cc, &file, var, &io, &SumKernel)
            });
            let request = var.byte_extents(slab);
            let data = request_bytes(&request, |i| w.value(i));
            let write = spans.call("cc_mpiio::collective_write", comm, |c| {
                collective_write(c, &fs_cc, &out_file, &request, &data, &self.write_hints)
            });
            MainRank {
                cc: CcRank {
                    report: out.report,
                    global: out.global,
                    comm: comm.stats().delta(&before),
                },
                per_rank: out.per_rank,
                write,
            }
        });
        let base = spmd::run_baseline(
            &world,
            &mut tracing,
            &fs_base,
            ClimateWorkload::FILE,
            var,
            &slabs,
            &self.hints,
            &SumKernel,
        );
        let pfs = PfsTotals::of(&fs_cc);
        Output {
            w,
            main,
            base,
            fs_cc,
            pfs,
        }
    }

    fn check(&self, out: &Output, checks: &mut Checks) {
        let total: f64 = self.oracle.iter().sum();
        let per_rank = out.main.iter().find_map(|r| r.per_rank.as_ref());
        for rank in 0..self.shape.nprocs {
            let want = self.oracle[self.slabs[rank]];
            let cc = per_rank
                .and_then(|p| p.get(rank))
                .and_then(|v| v.as_ref())
                .map(|v| v[0]);
            checks.close(cc.unwrap_or(f64::NAN), want, REL, || {
                format!("rank {rank} CC sum")
            });
            let base = out.base[rank].mine.first().copied().unwrap_or(f64::NAN);
            checks.close(base, want, REL, || format!("rank {rank} baseline sum"));
        }
        let cc_global = out
            .main
            .iter()
            .find_map(|r| r.cc.global.as_ref())
            .map(|g| g[0]);
        checks.close(cc_global.unwrap_or(f64::NAN), total, REL, || {
            "CC global sum".into()
        });
        let base_global = out
            .base
            .iter()
            .find_map(|r| r.global.as_ref())
            .map(|g| g[0]);
        checks.close(base_global.unwrap_or(f64::NAN), total, REL, || {
            "baseline global sum".into()
        });

        // Read the write-back file back, one check per extent.
        let file = out
            .fs_cc
            .open(OUT_FILE)
            .expect("set-up created the write-back file");
        for (rank, request) in self.requests(&out.w).iter().enumerate() {
            for e in request.extents() {
                let (got, _) = out.fs_cc.read_at(&file, e.offset, e.len, SimTime::ZERO);
                let want =
                    request_bytes(&OffsetList::contiguous(e.offset, e.len), |i| out.w.value(i));
                checks.check(got == want, || {
                    format!(
                        "rank {rank}: write-back bytes at offset {} differ",
                        e.offset
                    )
                });
            }
        }
    }

    fn summarize(&self, out: &Output) -> PassSummary {
        let last = out
            .main
            .iter()
            .max_by(|a, b| a.write.end.cmp(&b.write.end))
            .expect("at least one rank");
        let virt_s = last.write.end.secs();
        let cc: Vec<&CcRank> = out.main.iter().map(|r| &r.cc).collect();
        let mut layers = Layers::default();
        spmd::set_layers(&mut layers, &cc, &out.base);
        out.pfs.set(&mut layers, out.w.requested_bytes());
        let write_wait: f64 = out.main.iter().map(|r| wait_secs(&r.write.segments)).sum();
        let cc_wait = layers.get("mpi.wait_virt_s").unwrap_or(0.0);
        layers.set("mpi.wait_virt_s", cc_wait + write_wait);
        layers.set(
            "mpiio.write_virt_s",
            out.main
                .iter()
                .map(|r| r.write.elapsed().secs())
                .fold(0.0, f64::max),
        );
        layers.set(
            "mpiio.writes_issued",
            out.main.iter().map(|r| r.write.writes_issued).sum::<u64>() as f64,
        );
        layers.set("mpiio.plan_misses", 3.0);
        let start = last.cc.report.start.secs();
        let mut spans = intervals(&last.cc.report.segments);
        spans.extend(intervals(&last.write.segments));
        layers.set(
            "trace.virt_unattributed_s",
            virt_s - start - union_len(spans, start, virt_s),
        );
        let (baseline_virt_s, baseline_task_p50) = spmd::baseline_times(&out.base);
        PassSummary {
            virt_s,
            analysis_virt_s: out
                .main
                .iter()
                .map(|r| r.cc.report.end.secs())
                .fold(0.0, f64::max),
            baseline_virt_s,
            baseline_task_p50,
            task_lat: out
                .main
                .iter()
                .map(|r| r.write.end.saturating_since(r.cc.report.start).secs())
                .collect(),
            // The one query is the global sum, ready at the root.
            query_lat: vec![out.main[0].cc.report.end.secs()],
            layers,
        }
    }

    fn replays(&self, trace: &mut Trace, layers: &mut Layers) {
        let w = Self::generator(&self.shape);
        let var = w.var();
        let slabs: Vec<_> = self.slabs(&w).into_iter().map(|s| (var, s)).collect();
        let (host, extents) = replay::flatten(trace, &slabs);
        layers.set("array.flatten_host_s", host);
        layers.set("array.extents", extents as f64);
        let model = self.calibrate(&w, 1.0);
        layers.set(
            "mpi.world_host_s",
            replay::world(trace, self.shape.nprocs, &model),
        );
        let requests = self.requests(&w);
        let (virt, host) = replay::exchange(trace, &model, &requests);
        layers.set("mpiio.exchange_virt_s", virt);
        layers.set("mpiio.exchange_host_s", host);
        let fs = self.build_fs(&w);
        let file = fs
            .open(ClimateWorkload::FILE)
            .expect("build_fs created the climate file");
        let hints = replay::engine_hints(&self.hints, &file);
        let (host, schedules) =
            replay::plan(trace, &[(requests.clone(), model.topology.clone())], &hints);
        layers.set("mpiio.plan_host_s", host);
        let rm = replay::read_and_map(trace, &fs, &file, &schedules[0], var, &SumKernel);
        layers.set("pfs.read_host_s", rm.read_host_s);
        layers.set("core.map_host_s", rm.map_host_s);
        layers.set("core.map_bytes", rm.map_bytes as f64);

        // Encode and decode every rank's write-back payload.
        let payloads: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| request_bytes(r, |i| w.value(i)))
            .collect();
        let (mut frame, mut back) = (Vec::new(), Vec::new());
        let codec = trace.time(
            "replay.cc_compress::encode_into+decode_into",
            None,
            0,
            || {
                time_per_call(Duration::from_millis(40), || {
                    for p in &payloads {
                        frame.clear();
                        encode_into(&Compression::Lossless, p, &mut frame);
                        decode_into(&frame, &mut back);
                    }
                })
            },
        );
        layers.set("compress.codec_host_s", codec);
    }
}

/// The f64 values of `request` laid out in request order, as the bytes a
/// rank holds for it: element `i` of the file is `value(i)`.
fn request_bytes(request: &OffsetList, value: impl Fn(u64) -> f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(request.total_bytes() as usize);
    for e in request.extents() {
        for i in e.offset / 8..e.end() / 8 {
            out.extend_from_slice(&value(i).to_le_bytes());
        }
    }
    out
}
