//! Engine-level oracle equivalence for the compiled planner.
//!
//! The in-crate property tests (`cc-mpiio::schedule`) prove every
//! `PlanSchedule` *answer* is bit-identical to the query-based
//! `CollectivePlan` oracle. These tests close the loop at the engine
//! level: on random request sets — empty ranks, sparse holes, aligned
//! domains — every engine that consumes a schedule (two-phase read,
//! collective write, the cc engine, the traditional baseline, and fused
//! kernels) must produce identical *results* whether the schedule is
//! compiled fresh each step or reused through the plan cache's
//! hit/translation fast paths, and those results must match a
//! planner-free oracle.

use std::sync::Arc;

use cc_array::{Hyperslab, Shape};
use cc_core::{
    object_get_vara, object_get_vara_planned, traditional_get_vara, FusedKernel, MinLocKernel,
    ObjectIo, SumKernel,
};
use cc_integration::{build_var_fs, oracle_min_loc, oracle_sum, test_model, test_value};
use cc_model::{CollectiveMode, DiskModel, FaultPlan, SimTime};
use cc_mpi::World;
use cc_mpiio::{
    collective_read, collective_read_planned, collective_write, collective_write_planned,
    DomainPartition, Extent, Hints, OffsetList, PipelineDepth, PlanCache, PlanSource,
};
use cc_pfs::backend::ElemKind;
use cc_pfs::{MemBackend, Pfs, StripeLayout, SyntheticBackend};
use proptest::prelude::*;

/// A random multi-rank, multi-step request workload: per rank a sparse
/// `(gap, len)` walk (possibly empty), swept over `steps` timesteps each
/// shifted by a constant, alignment-safe delta.
#[derive(Debug, Clone)]
struct ReqSweep {
    per_rank: Vec<Vec<(u64, u64)>>,
    cb: u64,
    align: Option<u64>,
    nodes: usize,
    steps: usize,
}

impl ReqSweep {
    fn nprocs(&self) -> usize {
        self.per_rank.len()
    }

    fn hints(&self) -> Hints {
        Hints {
            cb_buffer_size: self.cb,
            align_domains_to: self.align,
            ..Hints::default()
        }
    }

    /// Shift between consecutive steps — a multiple of the domain
    /// alignment, so the cache's translation fast path stays valid.
    fn step_delta(&self) -> u64 {
        257 * self.align.unwrap_or(1)
    }

    /// Rank `r`'s request at `step`.
    fn request(&self, r: usize, step: usize) -> OffsetList {
        let mut pos = step as u64 * self.step_delta();
        let mut extents = Vec::new();
        for &(gap, len) in &self.per_rank[r] {
            pos += gap + 1;
            extents.push(Extent { offset: pos, len });
            pos += len;
        }
        OffsetList::new(extents)
    }

    /// Rank `r`'s request at `step`, offset into a per-rank region so
    /// no two ranks ever write the same byte in one collective (the
    /// write engine rejects overlapping writes).
    fn request_disjoint(&self, r: usize, step: usize) -> OffsetList {
        OffsetList::new(
            self.request(r, step)
                .extents()
                .iter()
                .map(|e| Extent {
                    offset: e.offset + r as u64 * Self::REGION,
                    len: e.len,
                })
                .collect(),
        )
    }

    /// Per-rank region span for [`Self::request_disjoint`]: larger than
    /// any walk can reach within one step.
    const REGION: u64 = 16_384;

    /// Bytes a file must hold to cover every rank's every step.
    fn file_size(&self) -> u64 {
        let mut size = 64u64;
        for r in 0..self.nprocs() {
            for step in 0..self.steps {
                for e in self.request(r, step).extents() {
                    size = size.max(e.end());
                }
            }
        }
        size + 8
    }
}

fn arb_sweep() -> impl Strategy<Value = ReqSweep> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0u64..200, 0u64..40), 0..8),
            1..5,
        ),
        4u64..10,
        proptest::option::of(1u64..96),
        1usize..3,
        2usize..4,
    )
        .prop_map(|(per_rank, cb_log, align, nodes, steps)| ReqSweep {
            per_rank,
            cb: 1 << cb_log,
            align,
            nodes,
            steps,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two-phase read: fresh per-step compiles and a cache shared across
    /// the sweep return the identical bytes, and the bytes are exactly
    /// what the backend holds at the requested extents.
    #[test]
    fn prop_read_cached_sweep_equals_fresh_and_backend(sweep in arb_sweep()) {
        let nprocs = sweep.nprocs();
        let size = sweep.file_size();
        let elems = size.div_ceil(8);
        let fs = Pfs::new(4, DiskModel::lustre_like());
        fs.create(
            "t.nc",
            StripeLayout::round_robin(1 << 9, 4, 0, 4),
            Box::new(SyntheticBackend::new(elems, ElemKind::F64, test_value)),
        );
        let fs = Arc::new(fs);
        let world = World::new(nprocs, test_model(sweep.nodes, nprocs.div_ceil(sweep.nodes)));
        let fs = &fs;
        let sweep_ref = &sweep;
        let ok = world.run(move |comm| {
            let file = fs.open("t.nc").expect("exists");
            let hints = sweep_ref.hints();
            let oracle = SyntheticBackend::new(elems, ElemKind::F64, test_value);
            let mut cache = PlanCache::new();
            let mut all_match = true;
            for step in 0..sweep_ref.steps {
                let req = sweep_ref.request(comm.rank(), step);
                let (fresh, _) = collective_read(comm, fs, &file, &req, &hints);
                let (cached, _) = collective_read_planned(
                    comm, fs, &file, &req, &hints, &mut PlanSource::Local(&mut cache),
                );
                all_match &= fresh == cached;
                // Planner-free oracle: the backend's bytes, extent by extent.
                let mut at = 0usize;
                for e in req.extents() {
                    let mut expect = vec![0u8; e.len as usize];
                    oracle.fill_range(e.offset, &mut expect);
                    all_match &= fresh[at..at + e.len as usize] == expect[..];
                    at += e.len as usize;
                }
                all_match &= at == fresh.len();
            }
            all_match &= cache.stats().misses <= 1;
            all_match
        });
        prop_assert!(ok.into_iter().all(|b| b), "read sweep diverged");
    }

    /// Collective write: a sweep written through the plan cache lands the
    /// byte-identical file as one written with fresh per-step schedules,
    /// and both match the expected overwrite of the zeroed file.
    #[test]
    fn prop_write_cached_sweep_equals_fresh_and_expected(sweep in arb_sweep()) {
        let nprocs = sweep.nprocs();
        let size = sweep.file_size() + nprocs as u64 * ReqSweep::REGION;
        let value_at = |o: u64| (o.wrapping_mul(131) ^ (o >> 5)) as u8;
        let fs = Pfs::new(4, DiskModel::lustre_like());
        for name in ["fresh.nc", "cached.nc"] {
            fs.create(
                name,
                StripeLayout::round_robin(1 << 9, 4, 0, 4),
                Box::new(MemBackend::zeroed(size as usize)),
            );
        }
        let fs = Arc::new(fs);
        let world = World::new(nprocs, test_model(sweep.nodes, nprocs.div_ceil(sweep.nodes)));
        {
            let fs = &fs;
            let sweep_ref = &sweep;
            world.run(move |comm| {
                let fresh_file = fs.open("fresh.nc").expect("exists");
                let cached_file = fs.open("cached.nc").expect("exists");
                let hints = sweep_ref.hints();
                let mut cache = PlanCache::new();
                for step in 0..sweep_ref.steps {
                    let req = sweep_ref.request_disjoint(comm.rank(), step);
                    let data: Vec<u8> = req
                        .extents()
                        .iter()
                        .flat_map(|e| (e.offset..e.end()).map(value_at))
                        .collect();
                    collective_write(comm, fs, &fresh_file, &req, &data, &hints);
                    collective_write_planned(
                        comm,
                        fs,
                        &cached_file,
                        &req,
                        &data,
                        &hints,
                        &mut PlanSource::Local(&mut cache),
                    );
                }
            });
        }
        let fresh_file = fs.open("fresh.nc").expect("exists");
        let cached_file = fs.open("cached.nc").expect("exists");
        let (fresh_bytes, _) = fs.read_at(&fresh_file, 0, size, SimTime::ZERO);
        let (cached_bytes, _) = fs.read_at(&cached_file, 0, size, SimTime::ZERO);
        prop_assert_eq!(&fresh_bytes, &cached_bytes, "cached write sweep diverged");
        // Planner-free oracle: zeros, overwritten wherever any rank wrote.
        let mut expect = vec![0u8; size as usize];
        for r in 0..nprocs {
            for step in 0..sweep.steps {
                for e in sweep.request_disjoint(r, step).extents() {
                    for o in e.offset..e.end() {
                        expect[o as usize] = value_at(o);
                    }
                }
            }
        }
        prop_assert_eq!(&fresh_bytes, &expect, "written file diverged from oracle");
    }

    /// Hierarchical comm variant: the same random sweep, read *and*
    /// written under [`CollectiveMode::Flat`] and
    /// [`CollectiveMode::Hierarchical`], must move bit-identical bytes.
    /// The topology is forced multi-node so leader relay/coalesce paths
    /// actually engage (single-node worlds fall back to flat).
    #[test]
    fn prop_hierarchical_shuffle_equals_flat(sweep in arb_sweep()) {
        let nprocs = sweep.nprocs();
        let nodes = sweep.nodes + 1; // >= 2 nodes
        let size = sweep.file_size() + nprocs as u64 * ReqSweep::REGION;
        let value_at = |o: u64| (o.wrapping_mul(193) ^ (o >> 3)) as u8;
        let mut reads: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut files: Vec<Vec<u8>> = Vec::new();
        for mode in [CollectiveMode::Flat, CollectiveMode::Hierarchical] {
            let fs = Pfs::new(4, DiskModel::lustre_like());
            fs.create(
                "t.nc",
                StripeLayout::round_robin(1 << 9, 4, 0, 4),
                Box::new(MemBackend::from_bytes(
                    (0..size).map(value_at).collect(),
                )),
            );
            fs.create(
                "out.nc",
                StripeLayout::round_robin(1 << 9, 4, 0, 4),
                Box::new(MemBackend::zeroed(size as usize)),
            );
            let fs = Arc::new(fs);
            let model = test_model(nodes, nprocs.div_ceil(nodes)).with_collectives(mode);
            let world = World::new(nprocs, model);
            let per_rank = {
                let fs = &fs;
                let sweep_ref = &sweep;
                world.run(move |comm| {
                    let file = fs.open("t.nc").expect("exists");
                    let out = fs.open("out.nc").expect("exists");
                    let hints = sweep_ref.hints();
                    let mut got = Vec::new();
                    for step in 0..sweep_ref.steps {
                        let req = sweep_ref.request(comm.rank(), step);
                        let (bytes, _) = collective_read(comm, fs, &file, &req, &hints);
                        let wreq = sweep_ref.request_disjoint(comm.rank(), step);
                        let data: Vec<u8> = wreq
                            .extents()
                            .iter()
                            .flat_map(|e| (e.offset..e.end()).map(value_at))
                            .collect();
                        collective_write(comm, fs, &out, &wreq, &data, &hints);
                        got.push(bytes);
                    }
                    got
                })
            };
            reads.push(per_rank.into_iter().flatten().collect());
            let out = fs.open("out.nc").expect("exists");
            let (file_bytes, _) = fs.read_at(&out, 0, size, SimTime::ZERO);
            files.push(file_bytes);
        }
        prop_assert_eq!(&reads[0], &reads[1], "hierarchical read bytes diverged from flat");
        prop_assert_eq!(&files[0], &files[1], "hierarchical written file diverged from flat");
    }

    /// Domain-partition strategies only redistribute *which aggregator*
    /// serves which bytes: on a random sweep over a randomly-striped file,
    /// Even, StripeAligned, and GroupCyclic must return bit-identical read
    /// buffers and land bit-identical written files — through the plan
    /// cache's hit/translation paths included.
    #[test]
    fn prop_partition_strategies_agree_bitwise(
        sweep in arb_sweep(),
        stripe_log in 5u64..11,
        stripe_count in 1usize..5,
    ) {
        let nprocs = sweep.nprocs();
        let size = sweep.file_size() + nprocs as u64 * ReqSweep::REGION;
        let value_at = |o: u64| (o.wrapping_mul(167) ^ (o >> 4)) as u8;
        let mut reads: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut files: Vec<Vec<u8>> = Vec::new();
        for partition in [
            DomainPartition::Even,
            DomainPartition::StripeAligned,
            DomainPartition::GroupCyclic,
        ] {
            let fs = Pfs::new(4, DiskModel::lustre_like());
            for (name, backend) in [
                (
                    "t.nc",
                    MemBackend::from_bytes((0..size).map(value_at).collect()),
                ),
                ("out.nc", MemBackend::zeroed(size as usize)),
            ] {
                fs.create(
                    name,
                    StripeLayout::round_robin(1 << stripe_log, stripe_count, 0, 4),
                    Box::new(backend),
                );
            }
            let fs = Arc::new(fs);
            let world =
                World::new(nprocs, test_model(sweep.nodes, nprocs.div_ceil(sweep.nodes)));
            let per_rank = {
                let fs = &fs;
                let sweep_ref = &sweep;
                world.run(move |comm| {
                    let file = fs.open("t.nc").expect("exists");
                    let out = fs.open("out.nc").expect("exists");
                    let hints = Hints {
                        domain_partition: partition,
                        ..sweep_ref.hints()
                    };
                    let mut cache = PlanCache::new();
                    let mut got = Vec::new();
                    for step in 0..sweep_ref.steps {
                        let req = sweep_ref.request(comm.rank(), step);
                        let (bytes, _) = collective_read_planned(
                            comm, fs, &file, &req, &hints, &mut PlanSource::Local(&mut cache),
                        );
                        let wreq = sweep_ref.request_disjoint(comm.rank(), step);
                        let data: Vec<u8> = wreq
                            .extents()
                            .iter()
                            .flat_map(|e| (e.offset..e.end()).map(value_at))
                            .collect();
                        collective_write_planned(
                            comm, fs, &out, &wreq, &data, &hints,
                            &mut PlanSource::Local(&mut cache),
                        );
                        got.push(bytes);
                    }
                    got
                })
            };
            reads.push(per_rank.into_iter().flatten().collect());
            let out = fs.open("out.nc").expect("exists");
            let (file_bytes, _) = fs.read_at(&out, 0, size, SimTime::ZERO);
            files.push(file_bytes);
        }
        prop_assert_eq!(&reads[0], &reads[1], "StripeAligned read bytes diverged from Even");
        prop_assert_eq!(&reads[0], &reads[2], "GroupCyclic read bytes diverged from Even");
        prop_assert_eq!(&files[0], &files[1], "StripeAligned written file diverged from Even");
        prop_assert_eq!(&files[0], &files[2], "GroupCyclic written file diverged from Even");
    }
}

/// A shape-based config for the kernel engines: row-blocked selections
/// with room for a shifted second step.
#[derive(Debug, Clone)]
struct KernelConfig {
    shape: Shape,
    nprocs: usize,
    cb: u64,
}

fn arb_kernel_config() -> impl Strategy<Value = KernelConfig> {
    (
        1usize..5,
        proptest::collection::vec(1u64..6, 1..3),
        5u64..12,
    )
        .prop_map(|(nprocs, extra, cb_log)| {
            // dims[0] holds two disjoint nprocs-sized row bands, so step 1
            // is step 0 shifted by a constant byte delta.
            let mut dims = vec![nprocs as u64 * 4];
            dims.extend(extra.iter().map(|&d| d * 4));
            KernelConfig {
                shape: Shape::new(dims),
                nprocs,
                cb: 1 << cb_log,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The cc engine, the traditional baseline, and a fused kernel must
    /// all agree with the planner-free oracle — and the cc engine must
    /// return identical partials whether each step compiles fresh or the
    /// steps share one plan cache (step 1 is a translation of step 0).
    #[test]
    fn prop_engines_equal_oracle_fresh_and_cached(cfg in arb_kernel_config()) {
        let (fs, var) = build_var_fs(&cfg.shape, 512, 4, 8);
        let world = World::new(cfg.nprocs, test_model(1, cfg.nprocs));
        let fs = &fs;
        let var = &var;
        let cfg_ref = &cfg;
        let results = world.run(move |comm| {
            let file = fs.open("t.nc").expect("exists");
            let band = cfg_ref.shape.dims()[0] / 2;
            let per = band / cfg_ref.nprocs as u64;
            let my_rank = comm.rank() as u64;
            let io_for = move |step: u64| {
                let mut start = vec![0; cfg_ref.shape.rank()];
                let mut count = cfg_ref.shape.dims().to_vec();
                start[0] = step * band + my_rank * per;
                count[0] = per;
                ObjectIo::new(start, count).hints(Hints {
                    cb_buffer_size: cfg_ref.cb,
                    ..Hints::default()
                })
            };
            let fused = FusedKernel::new(vec![&SumKernel, &MinLocKernel]);
            let mut cache = PlanCache::new();
            let mut sums = Vec::new();
            let mut fused_ok = true;
            for step in 0..2u64 {
                let io = io_for(step);
                let fresh = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
                let cached = object_get_vara_planned(
                    comm, fs, &file, var, &io, &SumKernel, &mut PlanSource::Local(&mut cache),
                );
                assert_eq!(
                    fresh.global_partial, cached.global_partial,
                    "cached cc partial diverged from fresh"
                );
                // Baseline over the same selection, reduced at root 0.
                let slab = Hyperslab::new(io.start.clone(), io.count.clone());
                let (base_global, _, _) = traditional_get_vara(
                    comm, fs, &file, var, &slab, &io.hints, &SumKernel, 0,
                );
                // Fused kernel through the cached path: its split
                // components must equal the dedicated kernels' answers.
                let fused_out = object_get_vara_planned(
                    comm, fs, &file, var, &io, &fused, &mut PlanSource::Local(&mut cache),
                );
                let minloc = object_get_vara(comm, fs, &file, var, &io, &MinLocKernel);
                if let (Some(fp), Some(sp), Some(mp)) = (
                    &fused_out.global_partial,
                    &cached.global_partial,
                    &minloc.global_partial,
                ) {
                    let parts = fused.split(fp);
                    fused_ok &= parts == vec![sp.clone(), mp.clone()];
                }
                sums.push((
                    cached.global.map(|g| g[0]),
                    base_global.map(|g| g[0]),
                    fused_out.global_partial.is_some(),
                ));
            }
            (sums, fused_ok, cache.stats())
        });
        // Root-side checks: each step's sum equals the oracle, from every
        // engine; the fused split matched on whichever rank held a global.
        let band = cfg.shape.dims()[0] / 2;
        for step in 0..2u64 {
            let mut count = cfg.shape.dims().to_vec();
            let mut start = vec![0; cfg.shape.rank()];
            start[0] = step * band;
            count[0] = band;
            let slab = Hyperslab::new(start, count);
            let expect = oracle_sum(&cfg.shape, &slab);
            let (cc, base, fused_root) = results
                .iter()
                .find_map(|(sums, _, _)| {
                    let s = &sums[step as usize];
                    s.0.map(|cc| (cc, s.1, s.2))
                })
                .expect("some rank holds the global");
            prop_assert!((cc - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "cc {cc} != oracle {expect}");
            let base = base.expect("baseline reduces to the same root");
            prop_assert!((base - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "baseline {base} != oracle {expect}");
            prop_assert!(fused_root, "fused global missing");
        }
        prop_assert!(results.iter().all(|(_, ok, _)| *ok), "fused split diverged");
        // The sweep's second step must have reused the compiled schedule:
        // at most one compile for the sum kernel's shape (the fused pass
        // shares it too — same selection, same hints).
        let stats = results[0].2;
        prop_assert!(stats.misses <= 1, "cache recompiled: {stats:?}");
        // Sanity: oracle_min_loc agrees with the dedicated kernel's own
        // tests elsewhere; here it pins the fused component semantics.
        let _ = oracle_min_loc(&cfg.shape, &Hyperslab::whole(&cfg.shape));
    }
}

/// A step's `(sum_global, fused_global)` pair — present on the rank that
/// holds the reduction root.
type KernelGlobals = (Option<Vec<f64>>, Option<Vec<f64>>);

/// The staging-depth variants every engine must agree across: ring
/// depths 1 (sequential, i.e. blocking), 2 (double buffer), 3, and
/// unbounded (the historical engine behavior).
const DEPTHS: [(&str, PipelineDepth); 4] = [
    ("sequential", PipelineDepth::Sequential),
    ("depth-2", PipelineDepth::Depth(2)),
    ("depth-3", PipelineDepth::Depth(3)),
    ("unbounded", PipelineDepth::Unbounded),
];

fn with_depth(base: &Hints, depth: PipelineDepth) -> Hints {
    Hints {
        pipeline_depth: depth,
        ..base.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Software pipelining reorders *when* staging buffers are filled,
    /// never *what* they carry: on a random sweep, every staging depth —
    /// under flat and hierarchical shuffles alike — must return the
    /// bit-identical read buffers and land the bit-identical written file.
    #[test]
    fn prop_pipeline_depths_move_identical_bytes(sweep in arb_sweep()) {
        let nprocs = sweep.nprocs();
        let nodes = sweep.nodes + 1; // >= 2 nodes so hierarchy engages
        let size = sweep.file_size() + nprocs as u64 * ReqSweep::REGION;
        let value_at = |o: u64| (o.wrapping_mul(211) ^ (o >> 6)) as u8;
        let mut baseline: Option<(Vec<Vec<u8>>, Vec<u8>)> = None;
        for mode in [CollectiveMode::Flat, CollectiveMode::Hierarchical] {
            for (label, depth) in DEPTHS {
                let fs = Pfs::new(4, DiskModel::lustre_like());
                fs.create(
                    "t.nc",
                    StripeLayout::round_robin(1 << 9, 4, 0, 4),
                    Box::new(MemBackend::from_bytes((0..size).map(value_at).collect())),
                );
                fs.create(
                    "out.nc",
                    StripeLayout::round_robin(1 << 9, 4, 0, 4),
                    Box::new(MemBackend::zeroed(size as usize)),
                );
                let fs = Arc::new(fs);
                let model = test_model(nodes, nprocs.div_ceil(nodes)).with_collectives(mode);
                let world = World::new(nprocs, model);
                let per_rank = {
                    let fs = &fs;
                    let sweep_ref = &sweep;
                    world.run(move |comm| {
                        let file = fs.open("t.nc").expect("exists");
                        let out = fs.open("out.nc").expect("exists");
                        let hints = with_depth(&sweep_ref.hints(), depth);
                        let mut got = Vec::new();
                        for step in 0..sweep_ref.steps {
                            let req = sweep_ref.request(comm.rank(), step);
                            let (bytes, _) = collective_read(comm, fs, &file, &req, &hints);
                            let wreq = sweep_ref.request_disjoint(comm.rank(), step);
                            let data: Vec<u8> = wreq
                                .extents()
                                .iter()
                                .flat_map(|e| (e.offset..e.end()).map(value_at))
                                .collect();
                            collective_write(comm, fs, &out, &wreq, &data, &hints);
                            got.push(bytes);
                        }
                        got
                    })
                };
                let reads: Vec<Vec<u8>> = per_rank.into_iter().flatten().collect();
                let out = fs.open("out.nc").expect("exists");
                let (file_bytes, _) = fs.read_at(&out, 0, size, SimTime::ZERO);
                match &baseline {
                    None => baseline = Some((reads, file_bytes)),
                    Some((base_reads, base_file)) => {
                        prop_assert_eq!(
                            base_reads, &reads,
                            "{} {:?} read bytes diverged from sequential flat", label, mode
                        );
                        prop_assert_eq!(
                            base_file, &file_bytes,
                            "{} {:?} written file diverged from sequential flat", label, mode
                        );
                    }
                }
            }
        }
    }

    /// The cc engine drains its staging ring through the map kernel: at
    /// every depth the kernel must see the iterations in the same order
    /// with the same bytes, so globals are exactly equal — not merely
    /// close — and still match the planner-free oracle.
    #[test]
    fn prop_cc_engine_depths_agree_exactly(cfg in arb_kernel_config()) {
        let (fs, var) = build_var_fs(&cfg.shape, 512, 4, 8);
        let band = cfg.shape.dims()[0] / 2;
        let per = band / cfg.nprocs as u64;
        let mut baseline: Option<Vec<KernelGlobals>> = None;
        for (label, depth) in DEPTHS {
            let world = World::new(cfg.nprocs, test_model(1, cfg.nprocs));
            let fs = &fs;
            let var = &var;
            let cfg_ref = &cfg;
            let results = world.run(move |comm| {
                let file = fs.open("t.nc").expect("exists");
                let fused = FusedKernel::new(vec![&SumKernel, &MinLocKernel]);
                let mut per_step = Vec::new();
                for step in 0..2u64 {
                    let mut start = vec![0; cfg_ref.shape.rank()];
                    let mut count = cfg_ref.shape.dims().to_vec();
                    start[0] = step * band + comm.rank() as u64 * per;
                    count[0] = per;
                    let io = ObjectIo::new(start, count).hints(with_depth(
                        &Hints {
                            cb_buffer_size: cfg_ref.cb,
                            ..Hints::default()
                        },
                        depth,
                    ));
                    let sum = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
                    let both = object_get_vara(comm, fs, &file, var, &io, &fused);
                    per_step.push((sum.global, both.global));
                }
                per_step
            });
            let flat: Vec<_> = results.into_iter().flatten().collect();
            match &baseline {
                None => baseline = Some(flat),
                Some(base) => prop_assert_eq!(
                    base, &flat,
                    "{} kernel globals diverged from sequential", label
                ),
            }
        }
        // The depth sweep agreed with itself; pin it to the oracle too.
        let globals = baseline.expect("at least one depth ran");
        for step in 0..2u64 {
            let mut start = vec![0; cfg.shape.rank()];
            let mut count = cfg.shape.dims().to_vec();
            start[0] = step * band;
            count[0] = band;
            let slab = Hyperslab::new(start, count);
            let expect = oracle_sum(&cfg.shape, &slab);
            let got = globals
                .iter()
                .skip(step as usize)
                .step_by(2)
                .find_map(|(sum, _)| sum.as_ref())
                .expect("some rank holds the global")[0];
            prop_assert!(
                (got - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "step {} sum {} != oracle {}", step, got, expect
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lossless wire compression is a pure transport change: on a random
    /// sweep, `Compression::Off` and `Compression::Lossless` must return
    /// bit-identical read buffers and land bit-identical written files,
    /// under flat and hierarchical shuffles and across staging depths.
    #[test]
    fn prop_lossless_compression_moves_identical_bytes(sweep in arb_sweep()) {
        use cc_mpiio::Compression;
        let nprocs = sweep.nprocs();
        let nodes = sweep.nodes + 1; // >= 2 nodes so inter-node lanes engage
        let size = sweep.file_size() + nprocs as u64 * ReqSweep::REGION;
        let value_at = |o: u64| (o.wrapping_mul(227) ^ (o >> 5)) as u8;
        let mut baseline: Option<(Vec<Vec<u8>>, Vec<u8>)> = None;
        for mode in [CollectiveMode::Flat, CollectiveMode::Hierarchical] {
            for compression in [Compression::Off, Compression::Lossless] {
                for (_, depth) in [DEPTHS[0], DEPTHS[1], DEPTHS[3]] {
                    let fs = Pfs::new(4, DiskModel::lustre_like());
                    fs.create(
                        "t.nc",
                        StripeLayout::round_robin(1 << 9, 4, 0, 4),
                        Box::new(MemBackend::from_bytes((0..size).map(value_at).collect())),
                    );
                    fs.create(
                        "out.nc",
                        StripeLayout::round_robin(1 << 9, 4, 0, 4),
                        Box::new(MemBackend::zeroed(size as usize)),
                    );
                    let fs = Arc::new(fs);
                    let model =
                        test_model(nodes, nprocs.div_ceil(nodes)).with_collectives(mode);
                    let world = World::new(nprocs, model);
                    let per_rank = {
                        let fs = &fs;
                        let sweep_ref = &sweep;
                        world.run(move |comm| {
                            let file = fs.open("t.nc").expect("exists");
                            let out = fs.open("out.nc").expect("exists");
                            let hints = Hints {
                                compression,
                                ..with_depth(&sweep_ref.hints(), depth)
                            };
                            let mut got = Vec::new();
                            for step in 0..sweep_ref.steps {
                                let req = sweep_ref.request(comm.rank(), step);
                                let (bytes, _) =
                                    collective_read(comm, fs, &file, &req, &hints);
                                let wreq = sweep_ref.request_disjoint(comm.rank(), step);
                                let data: Vec<u8> = wreq
                                    .extents()
                                    .iter()
                                    .flat_map(|e| (e.offset..e.end()).map(value_at))
                                    .collect();
                                collective_write(comm, fs, &out, &wreq, &data, &hints);
                                got.push(bytes);
                            }
                            got
                        })
                    };
                    let reads: Vec<Vec<u8>> = per_rank.into_iter().flatten().collect();
                    let out = fs.open("out.nc").expect("exists");
                    let (file_bytes, _) = fs.read_at(&out, 0, size, SimTime::ZERO);
                    match &baseline {
                        None => baseline = Some((reads, file_bytes)),
                        Some((base_reads, base_file)) => {
                            prop_assert_eq!(
                                base_reads, &reads,
                                "{:?} {:?} read bytes diverged", compression, mode
                            );
                            prop_assert_eq!(
                                base_file, &file_bytes,
                                "{:?} {:?} written file diverged", compression, mode
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Error-bounded hints must never flip a selection kernel's winner: the
/// engine clamps lossy compression to lossless for exact-tolerance
/// kernels (min/max and the located variants). The field is adversarial —
/// a near-flat ramp whose step (1e-7) is far below the requested bound
/// (1e-3), so an actually-lossy shuffle would collapse thousands of
/// near-ties onto shared reconstructions and report a wrong winner or a
/// wrong index. Both the collective-computing path and the blocking
/// (traditional, raw-field-shuffling) path are pinned, under flat and
/// hierarchical collectives.
#[test]
fn error_bounded_hints_never_flip_selection_winners() {
    use cc_core::{MaxLocKernel, MinKernel};
    use cc_mpiio::{Compression, ErrorBound};

    const N: u64 = 4096;
    let value = |i: u64| 500.0 - i as f64 * 1e-7;
    let nprocs = 4;
    let bytes: Vec<u8> = (0..N).flat_map(|i| value(i).to_le_bytes()).collect();
    for mode in [CollectiveMode::Flat, CollectiveMode::Hierarchical] {
        for blocking in [false, true] {
            let fs = Pfs::new(4, DiskModel::lustre_like());
            fs.create(
                "t.nc",
                StripeLayout::round_robin(1 << 9, 4, 0, 4),
                Box::new(MemBackend::from_bytes(bytes.clone())),
            );
            let fs = Arc::new(fs);
            let var = cc_array::Variable::new("v", Shape::new(vec![N]), cc_array::DType::F64, 0);
            let model = test_model(2, nprocs / 2).with_collectives(mode);
            let world = World::new(nprocs, model);
            let results = {
                let fs = &fs;
                let var = &var;
                world.run(move |comm| {
                    let file = fs.open("t.nc").expect("exists");
                    let per = N / nprocs as u64;
                    let start = vec![comm.rank() as u64 * per];
                    let count = vec![per];
                    let io = ObjectIo::new(start, count).blocking(blocking).hints(Hints {
                        cb_buffer_size: 2048,
                        compression: Compression::ErrorBounded(ErrorBound::absolute(1e-3)),
                        ..Hints::default()
                    });
                    let minloc = object_get_vara(comm, fs, &file, var, &io, &MinLocKernel);
                    let maxloc = object_get_vara(comm, fs, &file, var, &io, &MaxLocKernel);
                    let min = object_get_vara(comm, fs, &file, var, &io, &MinKernel);
                    (minloc.global, maxloc.global, min.global)
                })
            };
            let (minloc, maxloc, min) = results
                .iter()
                .find_map(|(a, b, c)| a.clone().map(|a| (a, b.clone().unwrap(), c.clone().unwrap())))
                .expect("root holds the globals");
            // The ramp decreases: exact min is the last element, exact max
            // the first — value *and* index must be exact to the bit.
            assert_eq!(minloc[0].to_bits(), value(N - 1).to_bits(), "minloc value ({mode:?}, blocking={blocking})");
            assert_eq!(minloc[1], (N - 1) as f64, "minloc index ({mode:?}, blocking={blocking})");
            assert_eq!(maxloc[0].to_bits(), value(0).to_bits(), "maxloc value ({mode:?}, blocking={blocking})");
            assert_eq!(maxloc[1], 0.0, "maxloc index ({mode:?}, blocking={blocking})");
            assert_eq!(min[0].to_bits(), value(N - 1).to_bits(), "min value ({mode:?}, blocking={blocking})");
        }
    }
}

/// A deterministic single-aggregator read workload: one node, so exactly
/// one rank books OST intervals and the virtual clock is reproducible
/// across runs (multi-aggregator timing depends on wall-clock booking
/// races, which backfill keeps *fair* but not *replayable*).
fn single_aggregator_sweep(
    depth: PipelineDepth,
    plan: Option<FaultPlan>,
) -> Vec<(Vec<u8>, SimTime, SimTime)> {
    const NPROCS: usize = 4;
    const PER_RANK: u64 = 8 << 10;
    let size = NPROCS as u64 * PER_RANK;
    let value_at = |o: u64| (o.wrapping_mul(151) ^ (o >> 7)) as u8;
    let mut fs = Pfs::new(4, DiskModel::lustre_like());
    if let Some(p) = &plan {
        fs = fs.with_fault_plan(p);
    }
    fs.create(
        "t.nc",
        StripeLayout::round_robin(1 << 9, 4, 0, 4),
        Box::new(MemBackend::from_bytes((0..size).map(value_at).collect())),
    );
    let fs = Arc::new(fs);
    let mut model = test_model(1, NPROCS);
    if let Some(p) = plan {
        model = model.with_fault(p);
    }
    let world = World::new(NPROCS, model);
    let fs = &fs;
    world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        // 2 KiB collective buffer over a 32 KiB file: 16 pipelined
        // iterations, so staging depth has room to matter.
        let hints = with_depth(
            &Hints {
                cb_buffer_size: 2 << 10,
                ..Hints::default()
            },
            depth,
        );
        let req = OffsetList::contiguous(comm.rank() as u64 * PER_RANK, PER_RANK);
        let (bytes, report) = collective_read(comm, fs, &file, &req, &hints);
        (bytes, report.start, report.end)
    })
}

/// Double buffering overlaps iteration i+1's read with iteration i's
/// shuffle, so on a read-dominated multi-iteration sweep the collective
/// must finish strictly earlier than sequential staging — and relaxing
/// the ring further (depth 3, unbounded) can only help, never hurt.
#[test]
fn deeper_staging_rings_monotonically_speed_up_reads() {
    let end_at = |depth: PipelineDepth| {
        let per_rank = single_aggregator_sweep(depth, None);
        let end = per_rank.iter().map(|(_, _, e)| *e).max().expect("ranks");
        let bytes: Vec<&Vec<u8>> = per_rank.iter().map(|(b, _, _)| b).collect();
        (end, bytes.iter().map(|b| b.len()).sum::<usize>())
    };
    let (seq, n1) = end_at(PipelineDepth::Sequential);
    let (two, n2) = end_at(PipelineDepth::Depth(2));
    let (three, n3) = end_at(PipelineDepth::Depth(3));
    let (unbounded, n4) = end_at(PipelineDepth::Unbounded);
    assert_eq!(n1, n2);
    assert_eq!(n1, n3);
    assert_eq!(n1, n4);
    assert!(
        two < seq,
        "double buffering must overlap read with shuffle: depth-2 {two} >= sequential {seq}"
    );
    assert!(three <= two, "depth-3 {three} regressed past depth-2 {two}");
    assert!(
        unbounded <= three,
        "unbounded {unbounded} regressed past depth-3 {three}"
    );
}

/// FNV-1a over `bytes`, folded into `acc`.
fn fnv(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One pinned observation: operation, staging depth, a checksum of the
/// data it moved or computed, and every rank's virtual end time in
/// seconds.
type PinnedRow = (&'static str, PipelineDepth, u64, [f64; 4]);

const PIN_NPROCS: usize = 4;
const PIN_BYTES: u64 = 32 << 10;

/// [`single_aggregator_sweep`]'s one-node, one-aggregator world, stressed
/// so that staging depth shapes the clock: 2 KiB stripes put each 2 KiB
/// iteration on a single OST and OST 0 runs 6x slow, so every fourth read
/// is slow, while a slow intra-node wire and a slow map make drains
/// outlast the fast reads. The file system holds the read source `t.nc`,
/// a 64x64 `f64` variable `v.nc` and a zeroed write target `out.nc`.
fn pinned_world() -> (World, Arc<Pfs>) {
    let value_at = |o: u64| (o.wrapping_mul(151) ^ (o >> 7)) as u8;
    let fault = FaultPlan::new().slow_ost(0, 6.0);
    let fs = Pfs::new(4, DiskModel::lustre_like()).with_fault_plan(&fault);
    let layout = || StripeLayout::round_robin(2 << 10, 4, 0, 4);
    fs.create(
        "t.nc",
        layout(),
        Box::new(MemBackend::from_bytes((0..PIN_BYTES).map(value_at).collect())),
    );
    fs.create(
        "v.nc",
        layout(),
        Box::new(SyntheticBackend::new(PIN_BYTES / 8, ElemKind::F64, test_value)),
    );
    fs.create("out.nc", layout(), Box::new(MemBackend::zeroed(PIN_BYTES as usize)));
    let mut model = test_model(1, PIN_NPROCS).with_fault(fault);
    model.net.bw_intra = 1e6;
    model.cpu.map_cost_per_byte = 4e-6;
    (World::new(PIN_NPROCS, model), Arc::new(fs))
}

fn pinned_hints(depth: PipelineDepth) -> Hints {
    with_depth(
        &Hints {
            cb_buffer_size: 2 << 10,
            ..Hints::default()
        },
        depth,
    )
}

/// Reads 8 KiB per rank through the two-phase read engine.
fn pinned_read(depth: PipelineDepth) -> (u64, [f64; 4]) {
    let (world, fs) = pinned_world();
    let fs = &fs;
    let out = world.run(move |comm| {
        let file = fs.open("t.nc").expect("exists");
        let per = PIN_BYTES / PIN_NPROCS as u64;
        let req = OffsetList::contiguous(comm.rank() as u64 * per, per);
        let (bytes, report) = collective_read(comm, fs, &file, &req, &pinned_hints(depth));
        (bytes, report.end.secs())
    });
    let sum = out.iter().fold(FNV_SEED, |h, (b, _)| fnv(h, b));
    let ends: Vec<f64> = out.iter().map(|(_, e)| *e).collect();
    (sum, ends.try_into().expect("four ranks"))
}

/// Writes 256-byte blocks interleaved across the ranks, so the one
/// aggregator assembles every chunk from all four; the checksum is over
/// the written file.
fn pinned_write(depth: PipelineDepth, compression: cc_mpiio::Compression) -> (u64, [f64; 4]) {
    const BLOCK: u64 = 256;
    let (world, fs) = pinned_world();
    let ends = {
        let fs = &fs;
        world.run(move |comm| {
            let out = fs.open("out.nc").expect("exists");
            let hints = Hints {
                compression,
                ..pinned_hints(depth)
            };
            let req = OffsetList::new(
                (0..PIN_BYTES / BLOCK / PIN_NPROCS as u64)
                    .map(|k| Extent {
                        offset: (k * PIN_NPROCS as u64 + comm.rank() as u64) * BLOCK,
                        len: BLOCK,
                    })
                    .collect(),
            );
            let data: Vec<u8> = req
                .extents()
                .iter()
                .flat_map(|e| (e.offset..e.end()).map(|o| (o.wrapping_mul(89) ^ (o >> 5)) as u8))
                .collect();
            collective_write(comm, fs, &out, &req, &data, &hints).end.secs()
        })
    };
    let out = fs.open("out.nc").expect("exists");
    let (bytes, _) = fs.read_at(&out, 0, PIN_BYTES, SimTime::ZERO);
    (fnv(FNV_SEED, &bytes), ends.try_into().expect("four ranks"))
}

/// Sums a 16-row band per rank through the collective-computing engine;
/// the checksum is over the global at the root.
fn pinned_sum(depth: PipelineDepth, reduce: cc_core::ReduceMode) -> (u64, [f64; 4]) {
    let (world, fs) = pinned_world();
    let var = cc_array::Variable::new("v", Shape::new(vec![64, 64]), cc_array::DType::F64, 0);
    let fs = &fs;
    let var = &var;
    let out = world.run(move |comm| {
        let file = fs.open("v.nc").expect("exists");
        let band = 64 / PIN_NPROCS as u64;
        let io = ObjectIo::new(vec![comm.rank() as u64 * band, 0], vec![band, 64])
            .reduce(reduce)
            .hints(pinned_hints(depth));
        let o = object_get_vara(comm, fs, &file, var, &io, &SumKernel);
        (o.global, o.report.end.secs())
    });
    let global = out
        .iter()
        .find_map(|(g, _)| g.clone())
        .expect("the root holds the global");
    let sum = global.iter().fold(FNV_SEED, |h, v| fnv(h, &v.to_bits().to_le_bytes()));
    let ends: Vec<f64> = out.iter().map(|(_, e)| *e).collect();
    (sum, ends.try_into().expect("four ranks"))
}

/// Every pinned observation, in [`PINNED_CLOCKS`] order.
fn pinned_observations() -> Vec<PinnedRow> {
    use cc_core::ReduceMode;
    use cc_mpiio::Compression;
    let mut rows = Vec::new();
    for depth in [
        PipelineDepth::Sequential,
        PipelineDepth::Depth(2),
        PipelineDepth::Depth(3),
        PipelineDepth::Unbounded,
    ] {
        let runs = [
            ("read", pinned_read(depth)),
            ("write", pinned_write(depth, Compression::Off)),
            ("write-lossless", pinned_write(depth, Compression::Lossless)),
            ("sum-all-to-one", pinned_sum(depth, ReduceMode::AllToOne { root: 0 })),
            ("sum-all-to-all", pinned_sum(depth, ReduceMode::AllToAll { root: 0 })),
        ];
        rows.extend(runs.map(|(op, (sum, ends))| (op, depth, sum, ends)));
    }
    rows
}

/// The exact virtual end times and data checksums of the read, write and
/// collective-computing engines on [`pinned_world`], at every staging
/// depth. One aggregator books every OST interval, so these clocks are
/// reproducible run to run; an engine change that moves any of them
/// changes the modelled timeline, not just its host cost.
#[rustfmt::skip]
const PINNED_CLOCKS: [PinnedRow; 20] = [
    ("read", PipelineDepth::Sequential, 0xd4ba7718e0da0125, [0.09696065680000004, 0.04645878320000002, 0.07273432240000002, 0.09900986160000004]),
    ("write", PipelineDepth::Sequential, 0x19ef118a56c6e325, [0.07489560800000004, 0.009736919200000003, 0.009736919200000003, 0.009736919200000003]),
    ("write-lossless", PipelineDepth::Sequential, 0x19ef118a56c6e325, [0.07490018400000001, 0.009736919200000003, 0.009736919200000003, 0.009736919200000003]),
    ("sum-all-to-one", PipelineDepth::Sequential, 0xfd9b1931355f434c, [0.105148588, 5.13e-5, 5.13e-5, 5.13e-5]),
    ("sum-all-to-all", PipelineDepth::Sequential, 0xfd9b1931355f434c, [0.10536039300000001, 0.10522988500000001, 0.10533539300000001, 0.10531029300000001]),
    ("read", PipelineDepth::Depth(2), 0xd4ba7718e0da0125, [0.07478110800000001, 0.04043065733333334, 0.058630485066666675, 0.07683031280000001]),
    ("write", PipelineDepth::Depth(2), 0x19ef118a56c6e325, [0.07489560800000004, 0.009736919200000003, 0.009736919200000003, 0.009736919200000003]),
    ("write-lossless", PipelineDepth::Depth(2), 0x19ef118a56c6e325, [0.07490018400000001, 0.009736919200000003, 0.009736919200000003, 0.009736919200000003]),
    ("sum-all-to-one", PipelineDepth::Depth(2), 0xfd9b1931355f434c, [0.07489506133333332, 5.13e-5, 5.13e-5, 5.13e-5]),
    ("sum-all-to-all", PipelineDepth::Depth(2), 0xfd9b1931355f434c, [0.07510686633333333, 0.07497635833333333, 0.07508186633333333, 0.07505676633333333]),
    ("read", PipelineDepth::Depth(3), 0xd4ba7718e0da0125, [0.07454529253333336, 0.04043065733333334, 0.05851257733333335, 0.07659449733333336]),
    ("write", PipelineDepth::Depth(3), 0x19ef118a56c6e325, [0.07489560800000004, 0.009736919200000003, 0.009736919200000003, 0.009736919200000003]),
    ("write-lossless", PipelineDepth::Depth(3), 0x19ef118a56c6e325, [0.07490018400000001, 0.009736919200000003, 0.009736919200000003, 0.009736919200000003]),
    ("sum-all-to-one", PipelineDepth::Depth(3), 0xfd9b1931355f434c, [0.07454408133333335, 5.13e-5, 5.13e-5, 5.13e-5]),
    ("sum-all-to-all", PipelineDepth::Depth(3), 0xfd9b1931355f434c, [0.07475588633333335, 0.07462537833333335, 0.07473088633333336, 0.07470578633333336]),
    ("read", PipelineDepth::Unbounded, 0xd4ba7718e0da0125, [0.07454529253333336, 0.04043065733333334, 0.05851257733333335, 0.07659449733333336]),
    ("write", PipelineDepth::Unbounded, 0x19ef118a56c6e325, [0.07489560800000004, 0.009736919200000003, 0.009736919200000003, 0.009736919200000003]),
    ("write-lossless", PipelineDepth::Unbounded, 0x19ef118a56c6e325, [0.07490018400000001, 0.009736919200000003, 0.009736919200000003, 0.009736919200000003]),
    ("sum-all-to-one", PipelineDepth::Unbounded, 0xfd9b1931355f434c, [0.07454408133333335, 5.13e-5, 5.13e-5, 5.13e-5]),
    ("sum-all-to-all", PipelineDepth::Unbounded, 0xfd9b1931355f434c, [0.07475588633333335, 0.07462537833333335, 0.07473088633333336, 0.07470578633333336]),
];

#[test]
fn single_aggregator_clocks_and_checksums_are_pinned() {
    let got = pinned_observations();
    let table: String = got
        .iter()
        .map(|(op, depth, sum, ends)| {
            format!("    ({op:?}, PipelineDepth::{depth:?}, {sum:#018x}, {ends:?}),\n")
        })
        .collect();
    assert!(
        got.len() == PINNED_CLOCKS.len()
            && got.iter().zip(&PINNED_CLOCKS).all(|(g, p)| {
                g.0 == p.0
                    && g.1 == p.1
                    && g.2 == p.2
                    && g.3.iter().zip(&p.3).all(|(a, b)| a.to_bits() == b.to_bits())
            }),
        "pinned clocks or checksums moved; observed:\n{table}"
    );
}

/// One randomly-drawn job for the multi-job service equivalence sweep.
#[derive(Debug, Clone)]
struct MixJob {
    nprocs: usize,
    steps: usize,
    extra_rows: u64,
    cols: u64,
    interactive: bool,
    weight: u8,
    arrival_us: u64,
    file: usize,
}

impl MixJob {
    fn rows_per_step(&self) -> u64 {
        self.nprocs as u64 + self.extra_rows
    }

    fn var_rows(&self) -> u64 {
        self.steps as u64 * self.rows_per_step()
    }

    fn spec(&self, id: usize) -> cc_service::JobSpec {
        use cc_core::SumKernel;
        let var = cc_array::Variable::new(
            "v",
            Shape::new(vec![self.var_rows(), self.cols]),
            cc_array::DType::F64,
            0,
        );
        let mut spec = cc_service::JobSpec::new(
            format!("job-{id}"),
            format!("mix-{}.nc", self.file),
            var,
            self.nprocs,
            Arc::new(SumKernel),
        )
        .weight(self.weight as f64)
        .arrival(SimTime::from_secs(self.arrival_us as f64 * 1e-6));
        if self.interactive {
            spec = spec.class(cc_service::QosClass::Interactive);
        }
        for s in 0..self.steps as u64 {
            spec = spec.step(
                vec![s * self.rows_per_step(), 0],
                vec![self.rows_per_step(), self.cols],
            );
        }
        spec
    }
}

/// A random service workload: K jobs over two shared files, one of three
/// scheduling policies, one of four fault plans.
#[derive(Debug, Clone)]
struct ServiceMix {
    jobs: Vec<MixJob>,
    policy: usize,
    fault: usize,
}

impl ServiceMix {
    fn policy(&self) -> cc_service::ServicePolicy {
        [
            cc_service::ServicePolicy::QosWfq,
            cc_service::ServicePolicy::Fifo,
            cc_service::ServicePolicy::RoundRobin,
        ][self.policy]
    }

    fn fault(&self) -> Option<FaultPlan> {
        match self.fault {
            0 => None,
            1 => Some(FaultPlan::new().slow_ost(0, 6.0)),
            2 => Some(FaultPlan::new().straggle_rank(0, 4.0)),
            _ => Some(FaultPlan::new().slow_ost(1, 3.0).straggle_rank(1, 2.0)),
        }
    }

    /// A fresh service over freshly-built files (data is identical across
    /// builds; only booking state would differ, and that never leaks into
    /// results).
    fn service(&self) -> cc_service::Service {
        let mut model = test_model(4, 2);
        let mut fs = Pfs::new(4, DiskModel::lustre_like());
        if let Some(p) = self.fault() {
            fs = fs.with_fault_plan(&p);
            model = model.with_fault(p);
        }
        for f in 0..2usize {
            let elems = self
                .jobs
                .iter()
                .filter(|j| j.file == f)
                .map(|j| j.var_rows() * j.cols)
                .max()
                .unwrap_or(64);
            fs.create(
                &format!("mix-{f}.nc"),
                StripeLayout::round_robin(1 << 9, 4, 0, 4),
                Box::new(SyntheticBackend::new(elems, ElemKind::F64, test_value)),
            );
        }
        let mut svc =
            cc_service::Service::new(model, Arc::new(fs)).with_policy(self.policy());
        // A modest shared backbone, so the lane booking path runs too.
        svc = svc.with_backbone(1e9);
        for (id, job) in self.jobs.iter().enumerate() {
            svc.submit(job.spec(id)).expect("mix jobs admit");
        }
        svc
    }
}

fn arb_service_mix() -> impl Strategy<Value = ServiceMix> {
    (
        proptest::collection::vec(
            (
                1usize..4,
                1usize..4,
                0u64..8,
                1u64..6,
                0u8..2,
                1u8..8,
                0u64..5000,
                0usize..2,
            ),
            2..5,
        ),
        0usize..3,
        0usize..4,
    )
        .prop_map(|(raw, policy, fault)| ServiceMix {
            jobs: raw
                .into_iter()
                .map(
                    |(nprocs, steps, extra_rows, cols8, interactive, weight, arrival_us, file)| {
                        MixJob {
                            nprocs,
                            steps,
                            extra_rows,
                            cols: cols8 * 8,
                            interactive: interactive == 1,
                            weight,
                            arrival_us,
                            file,
                        }
                    },
                )
                .collect(),
            policy,
            fault,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The multi-job service invariant: under ANY interleaving — random
    /// policies, QoS classes, weights, arrivals, and fault plans with slow
    /// OSTs and straggler ranks — every job's checksum is bit-identical to
    /// the serial execution of the same jobs, and the shared plan-cache
    /// counters partition exactly across jobs.
    #[test]
    fn prop_concurrent_jobs_bit_identical_to_serial_under_faults(mix in arb_service_mix()) {
        let conc = mix.service().run();
        let ser = mix.service().run_serial();
        prop_assert_eq!(conc.jobs.len(), ser.jobs.len());
        for (c, s) in conc.jobs.iter().zip(&ser.jobs) {
            prop_assert_eq!(c.id, s.id);
            prop_assert!(c.global.is_some(), "job {} lost its global", c.name);
            prop_assert_eq!(
                c.checksum(),
                s.checksum(),
                "job {} diverged from serial under policy {:?} fault {:?}",
                c.name.clone(),
                mix.policy(),
                mix.fault()
            );
            prop_assert!(c.finished >= c.started);
            prop_assert!(c.started >= c.submitted);
        }
        // Per-job cache counters partition the shared cache's totals.
        let folded = conc
            .jobs
            .iter()
            .fold(cc_mpiio::PlanCacheStats::default(), |acc, j| acc.merge(&j.plan_cache));
        prop_assert_eq!(folded, conc.cache);
        // Serial execution with private caches can never cross jobs.
        prop_assert_eq!(ser.cache.cross_job_hits, 0);
        prop_assert_eq!(ser.cache.cross_job_translations, 0);
    }
}

/// Shared-plan-cache regression under true concurrent access: two jobs
/// with translated-copy-compatible shapes (same per-rank extents, shifted
/// file offsets) run in separate worlds on separate OS threads against
/// one `SharedPlanCache`. Exactly one lookup anywhere may compile; every
/// other lookup must hit or translate that entry, and the non-compiling
/// job's lookups must all be counted as cross-job.
#[test]
fn shared_plan_cache_concurrent_jobs_share_and_count() {
    use cc_core::{iterative_get_vara_planned, SumKernel};
    use cc_mpiio::SharedPlanCache;

    const NPROCS: usize = 2;
    const STEPS: u64 = 2;
    const ROWS: u64 = 8;
    const COLS: u64 = 16;
    let fs = Pfs::new(4, DiskModel::lustre_like());
    for name in ["a.nc", "b.nc"] {
        fs.create(
            name,
            StripeLayout::round_robin(1 << 9, 4, 0, 4),
            Box::new(SyntheticBackend::new(
                2 * STEPS * ROWS * COLS,
                ElemKind::F64,
                test_value,
            )),
        );
    }
    let fs = Arc::new(fs);
    let cache = Arc::new(SharedPlanCache::new());
    let run_job = |file: &'static str, job: u64, row0: u64| {
        let fs = Arc::clone(&fs);
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            let var = cc_array::Variable::new(
                "v",
                Shape::new(vec![2 * STEPS * ROWS, COLS]),
                cc_array::DType::F64,
                0,
            );
            let world = World::new(NPROCS, test_model(1, NPROCS));
            let fs = &fs;
            let cache = &cache;
            let var = &var;
            let outs = world.run(move |comm| {
                let file = fs.open(file).expect("exists");
                let per = ROWS / NPROCS as u64;
                let ios: Vec<_> = (0..STEPS)
                    .map(|s| {
                        let start = vec![row0 + s * ROWS + comm.rank() as u64 * per, 0];
                        cc_core::ObjectIo::new(start, vec![per, COLS])
                    })
                    .collect();
                let steps: Vec<_> = ios.iter().map(|io| (var, io.clone())).collect();
                iterative_get_vara_planned(
                    comm,
                    fs,
                    &file,
                    &steps,
                    &SumKernel,
                    &mut PlanSource::shared(cache, job),
                )
            });
            // Sum per-rank stats: each rank made STEPS lookups.
            outs.iter().fold(cc_mpiio::PlanCacheStats::default(), |acc, o| {
                acc.merge(&o.plan_cache)
            })
        })
    };
    // Job 7 starts at row 0, job 8 at a translated-copy-compatible shift
    // (same shape, ROWS further into the variable).
    let ja = run_job("a.nc", 7, 0);
    let jb = run_job("b.nc", 8, ROWS);
    let sa = ja.join().expect("job 7 completes");
    let sb = jb.join().expect("job 8 completes");
    let total = sa.merge(&sb);
    let shared = cache.stats();
    assert_eq!(total, shared, "per-job stats must partition the shared totals");
    // 2 jobs x 2 ranks x 2 steps = 8 lookups; the compile happens under
    // the cache lock, so exactly one lookup misses no matter how the
    // worlds' threads interleave — everyone else hits or translates.
    assert_eq!(shared.lookups(), 8);
    assert_eq!(shared.misses, 1, "racing jobs recompiled: {shared:?}");
    assert_eq!(shared.hits + shared.translations, 7);
    // The job that did not compile made 4 lookups, all against the other
    // job's entry.
    assert_eq!(
        shared.cross_job_hits + shared.cross_job_translations,
        4,
        "cross-job accounting wrong: {shared:?}"
    );
    let crosses = [
        sa.cross_job_hits + sa.cross_job_translations,
        sb.cross_job_hits + sb.cross_job_translations,
    ];
    assert!(
        crosses == [0, 4] || crosses == [4, 0],
        "one job compiles, the other rides: {crosses:?}"
    );
}

/// Fault sweep: under slow OSTs and straggler ranks, every staging depth
/// must still move the identical bytes — adversity may stretch the
/// virtual clock but can never reorder what lands in a buffer. The test
/// completing at all is the no-hang half of the contract: a pipelined
/// iteration stuck waiting on a fault would trip the recv watchdog and
/// abort the world instead of deadlocking the suite.
#[test]
fn fault_plans_stretch_clocks_but_never_bytes_at_any_depth() {
    let plans = [
        FaultPlan::new().slow_ost(0, 8.0),
        FaultPlan::new().straggle_rank(1, 5.0),
        FaultPlan::new().slow_ost(1, 4.0).straggle_rank(0, 3.0),
    ];
    let healthy = single_aggregator_sweep(PipelineDepth::Sequential, None);
    let healthy_bytes: Vec<&Vec<u8>> = healthy.iter().map(|(b, _, _)| b).collect();
    for plan in plans {
        for (label, depth) in DEPTHS {
            let run = single_aggregator_sweep(depth, Some(plan.clone()));
            let bytes: Vec<&Vec<u8>> = run.iter().map(|(b, _, _)| b).collect();
            assert_eq!(
                healthy_bytes, bytes,
                "{label} under {plan:?} returned different bytes"
            );
        }
    }
}

/// A random many-task fusion mix: overlapping, disjoint, and duplicate
/// regions, mixed kernel classes (bounded-error sums and exact min-locs),
/// scattered arrivals, random batch widths and fuse windows, under the
/// same fault plans the service property sweeps.
#[derive(Debug, Clone)]
struct TaskMixCase {
    /// Per task: (row, col8, rows, cols8, kernel, arrival_us, duplicate).
    tasks: Vec<(u64, u64, u64, u64, u8, u64, u8)>,
    nprocs: usize,
    window_ms: usize,
    fault: usize,
}

const MIX_ROWS: u64 = 32;
const MIX_COLS: u64 = 32;

impl TaskMixCase {
    fn fault(&self) -> Option<FaultPlan> {
        match self.fault {
            0 => None,
            1 => Some(FaultPlan::new().slow_ost(0, 6.0)),
            2 => Some(FaultPlan::new().straggle_rank(0, 4.0)),
            _ => Some(FaultPlan::new().slow_ost(1, 3.0).straggle_rank(1, 2.0)),
        }
    }

    /// Every task's effective `(start, count, kernel)` — duplicates
    /// resolved to their predecessor, exactly as `batch()` submits them.
    fn resolved(&self) -> Vec<(Vec<u64>, Vec<u64>, u8)> {
        let mut out: Vec<(Vec<u64>, Vec<u64>, u8)> = Vec::with_capacity(self.tasks.len());
        for &(row, col8, rows, cols8, kernel, _, dup) in &self.tasks {
            match out.last() {
                Some(prev) if dup == 1 => out.push(prev.clone()),
                _ => out.push((vec![row, col8 * 8], vec![rows, cols8 * 8], kernel)),
            }
        }
        out
    }

    /// A fresh batch over a freshly-built file (data is identical across
    /// builds; only OST booking state differs, which never leaks into
    /// results).
    fn batch(&self) -> cc_service::TaskBatch {
        let mut model = test_model(2, 4);
        let mut fs = Pfs::new(4, DiskModel::lustre_like());
        if let Some(p) = self.fault() {
            fs = fs.with_fault_plan(&p);
            model = model.with_fault(p);
        }
        fs.create(
            "mix.nc",
            StripeLayout::round_robin(1 << 9, 4, 0, 4),
            Box::new(SyntheticBackend::new(
                MIX_ROWS * MIX_COLS,
                ElemKind::F64,
                test_value,
            )),
        );
        let var = cc_array::Variable::new(
            "v",
            Shape::new(vec![MIX_ROWS, MIX_COLS]),
            cc_array::DType::F64,
            0,
        );
        let mut batch = cc_service::TaskBatch::new(model, Arc::new(fs)).with_policy(
            cc_service::BatchPolicy {
                nprocs: self.nprocs,
                fuse_window: SimTime::from_secs(self.window_ms as f64 * 1e-3),
                ..cc_service::BatchPolicy::default()
            },
        );
        for (i, ((start, count, kernel), &(.., arrival_us, _))) in
            self.resolved().into_iter().zip(&self.tasks).enumerate()
        {
            let k: Arc<dyn cc_core::MapKernel> = if kernel == 0 {
                Arc::new(SumKernel)
            } else {
                Arc::new(MinLocKernel)
            };
            batch
                .submit(
                    cc_service::TaskSpec::new(
                        format!("t{i}"),
                        "mix.nc",
                        var.clone(),
                        start,
                        count,
                        k,
                    )
                    .arrival(SimTime::from_secs(arrival_us as f64 * 1e-6)),
                )
                .expect("mix tasks admit");
        }
        batch
    }
}

fn arb_task_mix() -> impl Strategy<Value = TaskMixCase> {
    (
        proptest::collection::vec(
            (
                0u64..28,
                0u64..3,
                1u64..5,
                1u64..3,
                0u8..2,
                0u64..5000,
                0u8..2,
            ),
            3..16,
        ),
        1usize..6,
        0usize..4,
        0usize..4,
    )
        .prop_map(|(tasks, nprocs, window_ms, fault)| TaskMixCase {
            tasks,
            nprocs,
            window_ms,
            fault,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The task-fusion invariant: on ANY many-task mix — overlapping,
    /// disjoint, and duplicate regions, mixed kernel classes, scattered
    /// arrivals, random batch widths and fuse windows, slow OSTs and
    /// straggler ranks — every task's fused result is bit-identical to
    /// its solo and independent executions, matches a brute-force oracle
    /// (dedup never drops or mangles a byte), and the fused-task counter
    /// accounts for every task exactly once.
    #[test]
    fn prop_fused_tasks_bit_identical_to_solo_under_faults(mix in arb_task_mix()) {
        let fused = mix.batch().run_fused();
        let indep = mix.batch().run_independent();
        let solo = mix.batch().run_solo();
        prop_assert_eq!(fused.tasks.len(), mix.tasks.len());
        for ((f, i), s) in fused.tasks.iter().zip(&indep.tasks).zip(&solo.tasks) {
            prop_assert_eq!(
                f.checksum(),
                s.checksum(),
                "task {} fused diverged from solo under fault {:?}",
                f.name.clone(),
                mix.fault()
            );
            prop_assert_eq!(
                i.checksum(),
                s.checksum(),
                "task {} independent diverged from solo",
                i.name.clone()
            );
            prop_assert!(f.bin.is_some(), "task {} was never binned", f.name.clone());
            prop_assert!(f.finished >= f.submitted);
        }
        // Oracle check: fusion must deliver every task its exact bytes.
        let shape = Shape::new(vec![MIX_ROWS, MIX_COLS]);
        for (t, (start, count, kernel)) in fused.tasks.iter().zip(mix.resolved()) {
            let slab = Hyperslab::new(start.clone(), count.clone());
            if kernel == 0 {
                let want = oracle_sum(&shape, &slab);
                let got = t.value[0];
                prop_assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "task {}: sum {} != oracle {}",
                    t.name.clone(),
                    got,
                    want
                );
            } else {
                let (min, loc) = oracle_min_loc(&shape, &slab);
                prop_assert_eq!(
                    t.value[0].to_bits(),
                    min.to_bits(),
                    "task {}: min {} != oracle {}",
                    t.name.clone(),
                    t.value[0],
                    min
                );
                prop_assert_eq!(t.value[1] as u64, loc, "task {} min-loc", t.name.clone());
            }
        }
        // Fused-task accounting: every task rode exactly one fused
        // schedule; the independent path never fuses.
        prop_assert_eq!(fused.plan_cache.fused_tasks, mix.tasks.len() as u64);
        prop_assert_eq!(indep.plan_cache.fused_tasks, 0);
        // Binning conserves tasks across bins.
        let binned: usize = fused.bins.iter().map(|b| b.tasks).sum();
        prop_assert_eq!(binned, mix.tasks.len());
    }
}
