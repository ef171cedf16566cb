//! Replays of single layers on a workload's own inputs.
//!
//! A replay calls one layer's public function outside the measured
//! passes, so that layer's host cost can be timed on its own. Each replay
//! is recorded as a span in the run's trace.

use std::time::Duration;

use cc_array::{Hyperslab, Variable};
use cc_core::MapKernel;
use cc_model::{ClusterModel, SimTime, Topology};
use cc_mpi::World;
use cc_mpiio::exchange::exchange_requests;
use cc_mpiio::{CollectivePlan, Hints, OffsetList, PlanSchedule, Striping};
use cc_pfs::{FileHandle, Pfs};

use crate::harness::time_per_call;
use crate::stats::{cpu_secs, median, CpuTimer, THREAD_CPU};
use crate::trace::{run_ranks, Trace};

/// Minimum host time a repeated replay accumulates before it is averaged.
const MIN_REPLAY: Duration = Duration::from_millis(40);

/// Host CPU seconds of one `World::run` with a no-op body at `nprocs`
/// ranks (median of five): the fixed cost of spawning and joining them.
pub fn world(trace: &mut Trace, nprocs: usize, model: &ClusterModel) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            trace.time(
                "replay.cc_mpi::World::run(no-op)",
                None,
                nprocs as u64,
                || {
                    time_per_call(Duration::ZERO, || {
                        World::new(nprocs, model.clone()).run(|_| ());
                    })
                },
            )
        })
        .collect();
    median(&samples)
}

/// Flattens every selection with `Variable::byte_extents`: host CPU seconds for
/// one flattening of all of them, and the extents they produce.
pub fn flatten(trace: &mut Trace, selections: &[(&Variable, Hyperslab)]) -> (f64, u64) {
    let mut extents = 0u64;
    let host = trace.time("replay.cc_array::Variable::byte_extents", None, 0, || {
        time_per_call(MIN_REPLAY, || {
            extents = selections
                .iter()
                .map(|(var, slab)| var.byte_extents(slab).extents().len() as u64)
                .sum();
        })
    });
    (host, extents)
}

/// Replays the offset-list exchange on `requests` (one per rank) in a
/// fresh world, median of three: the virtual seconds of the collective
/// (latest-finishing rank) and the host CPU seconds all ranks spent in it.
pub fn exchange(trace: &mut Trace, model: &ClusterModel, requests: &[OffsetList]) -> (f64, f64) {
    let mut virt = Vec::new();
    let mut host = Vec::new();
    for rep in 0..3 {
        let parent = trace.open("replay.cc_mpiio::exchange_requests", None, rep);
        let world = World::new(requests.len(), model.clone());
        let per_rank = run_ranks(&world, &mut Some((&mut *trace, parent)), |comm, spans| {
            let (cpu, v0) = (cpu_secs(THREAD_CPU), comm.clock());
            spans.call("cc_mpiio::exchange_requests", comm, |c| {
                exchange_requests(c, &requests[c.rank()])
            });
            let cpu = cpu_secs(THREAD_CPU) - cpu;
            (comm.clock().saturating_since(v0).secs(), cpu)
        });
        trace.close(parent);
        virt.push(per_rank.iter().map(|r| r.0).fold(0.0, f64::max));
        host.push(per_rank.iter().map(|r| r.1).sum());
    }
    (median(&virt), median(&host))
}

/// The hints an engine uses for `file`: the caller's plus the file's
/// striping, which the engines inject from the open file handle.
pub fn engine_hints(hints: &Hints, file: &FileHandle) -> Hints {
    Hints {
        striping: Some(Striping::from(file.layout())),
        ..hints.clone()
    }
}

/// Builds and compiles the collective plans of a pass's collective calls,
/// each given as its per-rank requests and the topology of its world:
/// host CPU seconds for one `CollectivePlan::build` + `PlanSchedule::compile`
/// of every call, and the compiled schedules.
pub fn plan(
    trace: &mut Trace,
    calls: &[(Vec<OffsetList>, Topology)],
    hints: &Hints,
) -> (f64, Vec<PlanSchedule>) {
    let compile = || -> Vec<PlanSchedule> {
        calls
            .iter()
            .map(|(requests, topology)| {
                PlanSchedule::compile(CollectivePlan::build(
                    requests.clone(),
                    topology,
                    requests.len(),
                    hints,
                ))
            })
            .collect()
    };
    let host = trace.time(
        "replay.cc_mpiio::CollectivePlan::build+PlanSchedule::compile",
        None,
        0,
        || {
            time_per_call(MIN_REPLAY, || {
                std::hint::black_box(compile());
            })
        },
    );
    (host, compile())
}

/// What replaying the aggregators' reads and maps measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReadMap {
    /// Host CPU seconds in `Pfs::read_multi`.
    pub read_host_s: f64,
    /// Host CPU seconds in `MapKernel::map`.
    pub map_host_s: f64,
    /// Bytes the kernel consumed (computed from the read ranges).
    pub map_bytes: u64,
}

impl std::ops::Add for ReadMap {
    type Output = ReadMap;

    fn add(self, o: ReadMap) -> ReadMap {
        ReadMap {
            read_host_s: self.read_host_s + o.read_host_s,
            map_host_s: self.map_host_s + o.map_host_s,
            map_bytes: self.map_bytes + o.map_bytes,
        }
    }
}

/// Replays every aggregator read of `schedule` with `Pfs::read_multi` on
/// `pfs` (a file system no pass uses), then runs `kernel` over the f64
/// values each read returned. Reads and maps are timed separately; value
/// decoding is not timed.
pub fn read_and_map(
    trace: &mut Trace,
    pfs: &Pfs,
    file: &FileHandle,
    schedule: &PlanSchedule,
    var: &Variable,
    kernel: &dyn MapKernel,
) -> ReadMap {
    let span = trace.open("replay.cc_pfs::Pfs::read_multi+MapKernel::map", None, 0);
    let mut out = ReadMap::default();
    let mut buf = Vec::new();
    let mut values = Vec::new();
    let mut acc = kernel.identity();
    let esize = var.dtype().size();
    for agg in 0..schedule.plan().aggregators.len() {
        for &iter in schedule.active_iterations(agg) {
            let ranges = schedule.read_ranges(agg, iter);
            let Some(&(base, _)) = ranges.first() else {
                continue;
            };
            let t = CpuTimer::start();
            pfs.read_multi(file, base, ranges, SimTime::ZERO, &mut buf);
            out.read_host_s += t.secs();
            for &(off, len) in ranges {
                let lo = (off - base) as usize;
                values.clear();
                values.extend(
                    buf[lo..lo + len as usize]
                        .chunks_exact(8)
                        .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
                );
                let first = off.saturating_sub(var.base_offset()) / esize;
                let t = CpuTimer::start();
                kernel.map(&mut acc, first, &values);
                out.map_host_s += t.secs();
                out.map_bytes += len;
            }
        }
    }
    std::hint::black_box(&acc);
    trace.close(span);
    out
}
