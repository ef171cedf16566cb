//! What the two single-job (SPMD) workloads, `wrf_slp` and `climate_rw`,
//! share: the traditional baseline run and the layer values both take
//! from their reports.

use cc_array::{Hyperslab, Variable};
use cc_core::{traditional_get_vara, BaselineReport, CcReport, MapKernel};
use cc_mpi::{CommStats, World};
use cc_mpiio::Hints;
use cc_pfs::Pfs;

use crate::common::wait_secs;
use crate::metrics::Layers;
use crate::trace::{run_ranks, Tracing};

/// OSTs in the modelled file system of both workloads.
pub const OSTS: usize = 156;

/// One rank's collective-computing observations.
pub struct CcRank {
    /// The rank's report.
    pub report: CcReport,
    /// The global result (root only).
    pub global: Option<Vec<f64>>,
    /// Communicator traffic of the rank's main-path calls.
    pub comm: CommStats,
}

/// One rank's baseline observations.
pub struct BaseRank {
    /// The rank's report.
    pub report: BaselineReport,
    /// The global result (root only).
    pub global: Option<Vec<f64>>,
    /// The rank's own finalized result.
    pub mine: Vec<f64>,
}

/// Runs the traditional read-then-compute baseline: every rank reads
/// `slabs[rank]` of `var` in `file` with a blocking collective read, maps
/// it with `kernel`, and reduces to rank 0.
#[allow(clippy::too_many_arguments)]
pub fn run_baseline(
    world: &World,
    tracing: &mut Tracing<'_>,
    pfs: &Pfs,
    file: &str,
    var: &Variable,
    slabs: &[Hyperslab],
    hints: &Hints,
    kernel: &dyn MapKernel,
) -> Vec<BaseRank> {
    let file = pfs.open(file).expect("set-up created the input file");
    run_ranks(world, tracing, |comm, spans| {
        let slab = &slabs[comm.rank()];
        let (global, mine, report) = spans.call("cc_core::traditional_get_vara", comm, |c| {
            traditional_get_vara(c, pfs, &file, var, slab, hints, kernel, 0)
        });
        BaseRank {
            report,
            global,
            mine,
        }
    })
}

/// Makespan of the baseline and its median per-rank latency, virtual
/// seconds.
pub fn baseline_times(base: &[BaseRank]) -> (f64, f64) {
    let ends = base.iter().map(|r| r.report.end.secs()).fold(0.0, f64::max);
    let lat: Vec<f64> = base.iter().map(|r| r.report.elapsed().secs()).collect();
    (ends, crate::stats::percentile(&lat, 50.0))
}

/// Sets the layer values both SPMD workloads take from their reports:
/// message counters and `cc-core` phases of the collective-computing main
/// path, and the read and shuffle phases of the baseline's two-phase
/// collective read (the only two-phase data shuffle these workloads run).
pub fn set_layers(layers: &mut Layers, cc: &[&CcRank], base: &[BaseRank]) {
    let mut comm = CommStats::default();
    for r in cc {
        comm.merge(&r.comm);
    }
    layers.set("mpi.msgs_inter", comm.msgs_inter as f64);
    layers.set("mpi.msgs_intra", comm.msgs_intra as f64);
    layers.set("mpi.bytes_inter", comm.bytes_inter as f64);
    layers.set("mpi.bytes_intra", comm.bytes_intra as f64);
    // Logical over wire bytes between nodes; with compression off the
    // wire carries the logical bytes unchanged.
    let wire = if comm.bytes_inter == 0 {
        1.0
    } else {
        comm.logical_inter.max(comm.bytes_inter) as f64 / comm.bytes_inter as f64
    };
    layers.set("compress.wire_ratio", wire);
    layers.set(
        "mpi.wait_virt_s",
        cc.iter()
            .map(|r| wait_secs(&r.report.segments))
            .sum::<f64>(),
    );
    let iters = cc.iter().flat_map(|r| &r.report.iterations);
    let (read, map) = iters.fold((0.0, 0.0), |(r, m), it| {
        (r + it.read.secs(), m + it.map.secs())
    });
    layers.set("core.read_virt_s", read);
    layers.set("core.map_virt_s", map);
    layers.set(
        "core.local_reduction_virt_s",
        cc.iter()
            .map(|r| r.report.local_reduction.secs())
            .fold(0.0, f64::max),
    );
    layers.set(
        "core.metadata_entries",
        cc.iter().map(|r| r.report.metadata_entries).sum::<u64>() as f64,
    );
    layers.set(
        "core.result_words_shuffled",
        cc.iter()
            .map(|r| r.report.result_words_shuffled)
            .sum::<u64>() as f64,
    );
    let tp = base.iter().map(|r| &r.report.two_phase);
    let (read, shuffle) = tp.fold((0.0, 0.0), |(r, s), t| {
        (r + t.read_total().secs(), s + t.shuffle_total().secs())
    });
    layers.set("mpiio.read_virt_s", read);
    layers.set("mpiio.shuffle_virt_s", shuffle);
    // Every collective call compiles a fresh plan (no cache is passed),
    // serves one job, and fuses nothing.
    layers.set("mpiio.plan_reuse_rate", 0.0);
    layers.set("mpiio.tasks_per_schedule", 1.0);
    layers.set("mpiio.fuse_ratio", 1.0);
    layers.set("service.dedup_factor", 1.0);
}
