//! The generate→decode→map hot-path pipeline, in its pre- and
//! post-optimization forms, shared by the Criterion microbench
//! (`benches/micro.rs`) and the `bench_hotpath` binary that records the
//! before/after throughput in `BENCH_hotpath.json`.
//!
//! "Before" is a faithful copy of the seed implementation: per-element
//! synthetic generation (one index division, one modulo, and one 8-byte
//! temporary per element), a freshly allocated chunk buffer per
//! iteration, and a freshly allocated `Vec<f64>` from `DType::decode` per
//! logical run. "After" is the current stack: [`SyntheticBackend::fill_range`]
//! bulk generation into a reused staging buffer and
//! [`DType::decode_into`] into a reused scratch vector. Both variants
//! produce bit-identical partials, which callers should assert.

use cc_array::DType;
use cc_core::{MapKernel, Partial};
use cc_model::Topology;
use cc_mpiio::{Extent, Hints, OffsetList};
use cc_pfs::backend::{default_climate_value, ElemKind};
use cc_pfs::{SyntheticBackend, ValueFn};

/// The fragmented access pattern the pipeline walks: `runs` logical runs
/// of `run_elems` elements, each separated by a gap of `gap_elems`
/// elements — the fine-grained interleaving that collective I/O (and the
/// paper's Fig. 1 workload) exists for.
#[derive(Debug, Clone, Copy)]
pub struct HotPathConfig {
    /// Logical runs per pipeline pass.
    pub runs: usize,
    /// Elements per run.
    pub run_elems: usize,
    /// Elements skipped between runs.
    pub gap_elems: usize,
}

impl HotPathConfig {
    /// Total elements mapped in one pass.
    pub fn total_elems(&self) -> usize {
        self.runs * self.run_elems
    }

    /// Total elements the file must hold (runs plus gaps).
    pub fn file_elems(&self) -> u64 {
        (self.runs * (self.run_elems + self.gap_elems)) as u64
    }

    /// The job-wide request set whose planning cost an end-to-end pass
    /// pays: every rank of an `nprocs`-rank job runs this config's
    /// run/gap pattern, rank-interleaved (rank `r` owns the `r`-th run
    /// slot of each round). Each process plans the *global* schedule
    /// before touching its own data, so the planner's share of a pass is
    /// measured against requests of all ranks, not just one.
    pub fn planning_requests(&self, nprocs: usize) -> Vec<OffsetList> {
        let esize = ElemKind::F64.size();
        let run_bytes = self.run_elems as u64 * esize;
        let slot_bytes = (self.run_elems + self.gap_elems) as u64 * esize;
        (0..nprocs as u64)
            .map(|r| {
                OffsetList::new(
                    (0..self.runs as u64)
                        .map(|k| Extent {
                            offset: (k * nprocs as u64 + r) * slot_bytes,
                            len: run_bytes,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Topology and hints the planning stage uses: one aggregator per
    /// node, collective buffers sized so each aggregator iterates a few
    /// times over its domain.
    pub fn planning_topology(&self, nprocs: usize, nodes: usize) -> (Topology, Hints) {
        let topo = Topology::new(nodes, nprocs.div_ceil(nodes));
        let hints = Hints {
            cb_buffer_size: 64 << 10,
            aggregators_per_node: 1,
            align_domains_to: None,
            ..Hints::default()
        };
        (topo, hints)
    }
}

/// The synthetic f64 climate file the pipeline reads. Generic over the
/// generator exactly like the production workloads, which pass the value
/// function as a zero-sized fn item — so it inlines into the fill loops
/// here just as it does in the real stack.
pub fn make_backend(cfg: &HotPathConfig) -> SyntheticBackend<impl ValueFn> {
    SyntheticBackend::new(cfg.file_elems(), ElemKind::F64, default_climate_value)
}

/// The seed's per-element generation loop, kept verbatim as the "before"
/// knob: one `index` division, one `within` modulo, and one covering
/// 8-byte temporary per generated element. In the seed, `esize` came from
/// the backend's runtime `ElemKind` field, so the divisions could not be
/// strength-reduced to shifts; `black_box` preserves that property here.
pub fn fill_range_old<V: ValueFn>(backend: &SyntheticBackend<V>, offset: u64, buf: &mut [u8]) {
    let esize = std::hint::black_box(ElemKind::F64.size());
    let mut pos = offset;
    let mut filled = 0usize;
    while filled < buf.len() {
        let index = pos / esize;
        let within = (pos % esize) as usize;
        let bytes = backend.value(index).to_le_bytes();
        let take = ((esize as usize) - within).min(buf.len() - filled);
        buf[filled..filled + take].copy_from_slice(&bytes[within..within + take]);
        filled += take;
        pos += take as u64;
    }
}

/// One pass of the seed pipeline: allocate a chunk, generate it per
/// element, then per run `DType::decode` (fresh `Vec<f64>` each) and map.
pub fn run_before<V: ValueFn>(
    cfg: &HotPathConfig,
    backend: &SyntheticBackend<V>,
    kernel: &dyn MapKernel,
) -> Partial {
    let esize = ElemKind::F64.size() as usize;
    let stride = cfg.run_elems + cfg.gap_elems;
    let mut acc = kernel.identity();
    let mut chunk = vec![0u8; (cfg.file_elems() as usize) * esize];
    fill_range_old(backend, 0, &mut chunk);
    for r in 0..cfg.runs {
        let start_elem = (r * stride) as u64;
        let off = start_elem as usize * esize;
        let len = cfg.run_elems * esize;
        let values = DType::F64.decode(&chunk[off..off + len]);
        kernel.map(&mut acc, start_elem, &values);
    }
    acc
}

/// Reusable buffers for the optimized pipeline — the per-rank `Scratch`
/// arena pattern of `cc-core::engine`.
#[derive(Debug, Default)]
pub struct HotPathScratch {
    /// Staging buffer the bulk generation lands in.
    pub bytes: Vec<u8>,
    /// Decoded values, reused across runs.
    pub values: Vec<f64>,
}

/// One pass of the optimized pipeline: bulk `fill_range` into a reused
/// staging buffer, then per run `decode_into` a reused scratch vector and
/// map. Allocation-free once `scratch` has reached its high-water mark.
pub fn run_after<V: ValueFn>(
    cfg: &HotPathConfig,
    backend: &SyntheticBackend<V>,
    kernel: &dyn MapKernel,
    scratch: &mut HotPathScratch,
) -> Partial {
    let esize = ElemKind::F64.size() as usize;
    let stride = cfg.run_elems + cfg.gap_elems;
    let mut acc = kernel.identity();
    scratch.bytes.clear();
    scratch.bytes.resize((cfg.file_elems() as usize) * esize, 0);
    backend.fill_range(0, &mut scratch.bytes);
    for r in 0..cfg.runs {
        let start_elem = (r * stride) as u64;
        let off = start_elem as usize * esize;
        let len = cfg.run_elems * esize;
        DType::F64.decode_into(&scratch.bytes[off..off + len], &mut scratch.values);
        kernel.map(&mut acc, start_elem, &scratch.values);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::{MinLocKernel, SumKernel};

    #[test]
    fn before_and_after_are_bit_exact() {
        let cfg = HotPathConfig {
            runs: 37,
            run_elems: 61,
            gap_elems: 13,
        };
        let backend = make_backend(&cfg);
        let mut scratch = HotPathScratch::default();
        for kernel in [&SumKernel as &dyn MapKernel, &MinLocKernel] {
            let before = run_before(&cfg, &backend, kernel);
            let after = run_after(&cfg, &backend, kernel, &mut scratch);
            assert_eq!(before, after, "{} diverged", kernel.name());
        }
    }

    #[test]
    fn planning_requests_walks_agree() {
        use crate::plan::{walk_compiled, walk_query};
        use cc_mpiio::{CollectivePlan, PlanSchedule};
        use std::sync::Arc;

        let cfg = HotPathConfig {
            runs: 24,
            run_elems: 8,
            gap_elems: 8,
        };
        let nprocs = 6;
        let (topo, hints) = cfg.planning_topology(nprocs, 2);
        let reqs = Arc::new(cfg.planning_requests(nprocs));
        let plan = CollectivePlan::build(Arc::clone(&reqs), &topo, nprocs, &hints);
        let sched = PlanSchedule::compile(plan.clone());
        assert_eq!(walk_query(&plan), walk_compiled(&sched));
    }

    #[test]
    fn old_generation_matches_fill_range() {
        let cfg = HotPathConfig {
            runs: 5,
            run_elems: 11,
            gap_elems: 3,
        };
        let backend = make_backend(&cfg);
        let n = cfg.file_elems() as usize * 8;
        let mut old = vec![0u8; n];
        let mut new = vec![0u8; n];
        fill_range_old(&backend, 0, &mut old);
        backend.fill_range(0, &mut new);
        assert_eq!(old, new);
    }
}
