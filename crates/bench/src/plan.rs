//! Planner benchmark scenarios: query-based vs compiled vs cached plans.
//!
//! The workload mirrors the paper's fine-grained interleaved access at
//! scale — hundreds of ranks each requesting thousands of small extents,
//! swept over multiple timesteps whose selections shift by a constant
//! offset (the canonical iterative pattern `cc-core::iterative` runs).
//! Three planner strategies are measured over the same steps:
//!
//! * **query** — build a [`CollectivePlan`] per step and answer every
//!   schedule question the engines ask through the query API (re-scanning
//!   offset lists per call, allocating `Vec`s per answer);
//! * **compiled** — build the plan, compile a [`PlanSchedule`] once, and
//!   answer the same questions from the flat tables;
//! * **cached** — resolve each step through a [`PlanCache`], so step 0
//!   compiles and every later step reuses the schedule via the
//!   offset-translation fast path.
//!
//! Every strategy computes the same checksum over its answers, which the
//! binary asserts — the speedup must not come from answering less.

use std::sync::Arc;

use cc_model::Topology;
use cc_mpiio::{CollectivePlan, Extent, Hints, OffsetList, PlanCache, PlanSchedule};

use crate::Scale;

/// Shape of one planner-benchmark scenario.
#[derive(Debug, Clone, Copy)]
pub struct PlanBenchConfig {
    /// Ranks in the job.
    pub nprocs: usize,
    /// Nodes the ranks are spread over (one aggregator per node).
    pub nodes: usize,
    /// Extents each rank requests per step.
    pub extents_per_rank: usize,
    /// Bytes per extent.
    pub extent_len: u64,
    /// Timesteps in the sweep.
    pub steps: usize,
    /// Collective buffer size.
    pub cb: u64,
}

impl PlanBenchConfig {
    /// The scenario for a [`Scale`]: `Full` is the paper-like
    /// hundreds-of-ranks / thousands-of-extents sweep, `Quick` shrinks it
    /// for CI smoke runs.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                nprocs: 512,
                nodes: 64,
                extents_per_rank: 2048,
                extent_len: 64,
                steps: 12,
                cb: 32 << 10,
            },
            Scale::Quick => Self {
                nprocs: 48,
                nodes: 12,
                extents_per_rank: 512,
                extent_len: 64,
                steps: 6,
                cb: 16 << 10,
            },
        }
    }

    /// The topology of the scenario (one aggregator per node).
    pub fn topology(&self) -> Topology {
        Topology::new(self.nodes, self.nprocs.div_ceil(self.nodes))
    }

    /// The planner hints of the scenario.
    pub fn hints(&self) -> Hints {
        Hints {
            cb_buffer_size: self.cb,
            aggregators_per_node: 1,
            align_domains_to: None,
            ..Hints::default()
        }
    }

    /// Bytes one step spans (all ranks interleaved, no holes between
    /// rounds).
    pub fn step_span(&self) -> u64 {
        self.nprocs as u64 * self.extents_per_rank as u64 * self.extent_len
    }

    /// Every rank's request for timestep `step`: rank `r` takes extent
    /// `k * nprocs + r` of an interleaved round-robin tiling — the classic
    /// fine-grained pattern two-phase I/O exists for — shifted by one full
    /// step span per step (so each later step is a constant-offset
    /// translation of step 0).
    pub fn requests(&self, step: usize) -> Vec<OffsetList> {
        let base = step as u64 * self.step_span();
        (0..self.nprocs as u64)
            .map(|r| {
                OffsetList::new(
                    (0..self.extents_per_rank as u64)
                        .map(|k| Extent {
                            offset: base + (k * self.nprocs as u64 + r) * self.extent_len,
                            len: self.extent_len,
                        })
                        .collect(),
                )
            })
            .collect()
    }
}

/// Walks every schedule question the two-phase engines ask of a plan —
/// active iterations, read ranges, destinations, each destination's
/// pieces, and each rank's sources — through the **query API**, folding
/// the answers into a checksum.
pub fn walk_query(plan: &CollectivePlan) -> u64 {
    let mut sum = 0u64;
    for a in 0..plan.aggregators.len() {
        for it in plan.active_iterations(a) {
            if let Some((lo, hi)) = plan.read_range(a, it) {
                sum = sum.wrapping_add(lo ^ hi.rotate_left(17));
            }
            for dst in plan.destinations(a, it) {
                for p in plan.pieces_for(a, it, dst) {
                    sum = sum
                        .wrapping_add(p.extent.offset)
                        .wrapping_add(p.extent.len.rotate_left(7))
                        .wrapping_add(p.buf_offset.rotate_left(31));
                }
            }
        }
    }
    for r in 0..plan.requests.len() {
        // Receivers re-derive each source chunk's pieces to place incoming
        // bytes, exactly like the query-based engines did.
        for (a, it) in plan.sources_for(r) {
            sum = sum.wrapping_add((a as u64) << 20).wrapping_add(it as u64);
            for p in plan.pieces_for(a, it, r) {
                sum = sum.wrapping_add(p.buf_offset ^ p.extent.len);
            }
        }
    }
    sum
}

/// The same walk through a compiled [`PlanSchedule`] — must produce the
/// identical checksum.
pub fn walk_compiled(schedule: &PlanSchedule) -> u64 {
    let plan = schedule.plan();
    let mut sum = 0u64;
    for a in 0..plan.aggregators.len() {
        for &it in schedule.active_iterations(a) {
            if let Some((lo, hi)) = schedule.read_range(a, it) {
                sum = sum.wrapping_add(lo ^ hi.rotate_left(17));
            }
            for (_, pieces) in schedule.dests_with_pieces(a, it) {
                for p in pieces {
                    sum = sum
                        .wrapping_add(p.extent.offset)
                        .wrapping_add(p.extent.len.rotate_left(7))
                        .wrapping_add(p.buf_offset.rotate_left(31));
                }
            }
        }
    }
    for r in 0..plan.requests.len() {
        for (a, it, pieces) in schedule.sources_with_pieces(r) {
            sum = sum.wrapping_add((a as u64) << 20).wrapping_add(it as u64);
            for p in pieces {
                sum = sum.wrapping_add(p.buf_offset ^ p.extent.len);
            }
        }
    }
    sum
}

/// One sweep with the query-based planner: per step, build the plan and
/// answer everything through the query API. Returns the checksum over all
/// steps.
pub fn sweep_query(cfg: &PlanBenchConfig, requests: &[Arc<Vec<OffsetList>>]) -> u64 {
    let topo = cfg.topology();
    let hints = cfg.hints();
    let mut sum = 0u64;
    for step in requests {
        let plan = CollectivePlan::build(Arc::clone(step), &topo, cfg.nprocs, &hints);
        sum = sum.wrapping_add(walk_query(&plan));
    }
    sum
}

/// One sweep with cold compiled schedules: per step, build + compile, then
/// answer from the tables.
pub fn sweep_compiled(cfg: &PlanBenchConfig, requests: &[Arc<Vec<OffsetList>>]) -> u64 {
    let topo = cfg.topology();
    let hints = cfg.hints();
    let mut sum = 0u64;
    for step in requests {
        let plan = CollectivePlan::build(Arc::clone(step), &topo, cfg.nprocs, &hints);
        let schedule = PlanSchedule::compile(plan);
        sum = sum.wrapping_add(walk_compiled(&schedule));
    }
    sum
}

/// One sweep through a [`PlanCache`]: step 0 compiles, later steps
/// translate. Returns the checksum and the cache counters.
pub fn sweep_cached(
    cfg: &PlanBenchConfig,
    requests: &[Arc<Vec<OffsetList>>],
) -> (u64, cc_mpiio::PlanCacheStats) {
    let topo = cfg.topology();
    let hints = cfg.hints();
    let mut cache = PlanCache::new();
    let mut sum = 0u64;
    for step in requests {
        let schedule = cache.get_or_compile(Arc::clone(step), &topo, cfg.nprocs, &hints);
        sum = sum.wrapping_add(walk_compiled(&schedule));
    }
    (sum, cache.stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_agree() {
        let cfg = PlanBenchConfig {
            nprocs: 6,
            nodes: 3,
            extents_per_rank: 40,
            extent_len: 16,
            steps: 4,
            cb: 512,
        };
        let requests: Vec<Arc<Vec<OffsetList>>> = (0..cfg.steps)
            .map(|s| Arc::new(cfg.requests(s)))
            .collect();
        let q = sweep_query(&cfg, &requests);
        let c = sweep_compiled(&cfg, &requests);
        let (k, stats) = sweep_cached(&cfg, &requests);
        assert_eq!(q, c, "compiled walk diverged from query walk");
        assert_eq!(q, k, "cached walk diverged from query walk");
        assert_eq!(stats.misses, 1, "only step 0 should compile");
        assert_eq!(stats.translations as usize, cfg.steps - 1);
    }
}
