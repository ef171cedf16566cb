//! The collective-computing engine (the paper's Figs. 4, 7, 8).
//!
//! Phase 1 is the two-phase protocol's aggregated read, unchanged. But
//! instead of shuffling raw bytes, each aggregator *constructs* the logical
//! runs of every requester inside the chunk (the logical map), applies the
//! user kernel to them in place, and caches one partial result per owner.
//! The shuffle phase then moves only those partials, under one of two
//! reduce topologies (paper §III-C): all-to-one (everything to a single
//! node, which constructs per-process results and reduces) or all-to-all
//! (each process gets its own partials, reduces locally, and a final
//! reduce produces the global result).
//!
//! The aggregator loop is `cc_mpiio`'s read-ahead pipeline with the map as
//! its drain step: by default (the paper's non-blocking mode) the map of
//! iteration `i` runs on a separate lane and overlaps the read of
//! iteration `i+1`, with the map rate scaled by the node's idle cores (see
//! the crate docs).

use cc_array::{construct_runs, Hyperslab, Variable};
use cc_model::{Lane, SimTime};
use cc_mpi::comm::TagValue;
use cc_mpi::Comm;
use cc_mpiio::exchange::exchange_and_plan;
use cc_mpiio::pipeline::read_ahead;
use cc_mpiio::{independent_read, Hints, PlanSchedule, PlanSource};
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::baseline::{map_buffer, traditional_get_vara_partial};
use crate::intermediate::IntermediateSet;
use crate::kernel::{MapKernel, Partial, PartialReduceOp};
use crate::object::{IoMode, ObjectIo, ReduceMode};
use crate::scratch::Scratch;

/// Tag base for intermediate-result shuffles; each operation stamps its
/// sequence number into the low bits (see `Comm::next_engine_tag`), so
/// back-to-back operations never cross-match.
const TAG_RESULTS: TagValue = 0x5000_0000;

/// The default root rank for reductions.
pub fn default_root() -> usize {
    0
}

/// Durations of one collective-computing iteration at an aggregator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcIterTiming {
    /// Read-phase duration (including OST queueing).
    pub read: SimTime,
    /// Map-phase duration (kernel + metadata construction).
    pub map: SimTime,
}

/// What one rank observed during a collective-computing operation.
#[derive(Debug, Clone, Default)]
pub struct CcReport {
    /// Virtual time entering the operation.
    pub start: SimTime,
    /// Virtual time when this rank's role completed.
    pub end: SimTime,
    /// Per-iteration read/map timings (aggregators only).
    pub iterations: Vec<CcIterTiming>,
    /// Bytes this rank read from the file system (aggregator role).
    pub bytes_read: u64,
    /// Words of intermediate results this rank sent.
    pub result_words_shuffled: u64,
    /// Logical-run metadata entries this rank created (Fig. 12's x-axis
    /// sweep changes this through the buffer size).
    pub metadata_entries: u64,
    /// Bytes of that metadata.
    pub metadata_bytes: u64,
    /// The paper's "local reduction" overhead: logical construction plus
    /// intermediate-result combining (Fig. 11).
    pub local_reduction: SimTime,
    /// Activity segments for CPU profiling.
    pub segments: Vec<Segment>,
}

impl CcReport {
    /// Total elapsed virtual time.
    pub fn elapsed(&self) -> SimTime {
        self.end.saturating_since(self.start)
    }
}

/// The results of one object-I/O call.
#[derive(Debug, Clone)]
pub struct CcOutcome {
    /// This rank's own-subset result. Present on every rank under
    /// all-to-all reduce (and in independent/blocking modes); under
    /// all-to-one it is only known at the root.
    pub my_result: Option<Vec<f64>>,
    /// The global reduction — present at the reduce root only.
    pub global: Option<Vec<f64>>,
    /// Per-rank results, indexed by rank — present at the all-to-one root
    /// (where every process's partials were constructed).
    pub per_rank: Option<Vec<Option<Vec<f64>>>>,
    /// The raw (pre-finalize) global partial — present wherever `global`
    /// is. Iterative sweeps fold these; finalized outputs of kernels like
    /// `mean` cannot be folded.
    pub global_partial: Option<Partial>,
    /// This rank's phase observations.
    pub report: CcReport,
}

/// The paper's `ncmpi_object_get_vara` (Fig. 6, line 11): performs the
/// object I/O described by `io`, running `kernel` inside the collective.
/// Must be called by all ranks.
pub fn object_get_vara(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    io: &ObjectIo,
    kernel: &dyn MapKernel,
) -> CcOutcome {
    object_get_vara_planned(comm, pfs, file, var, io, kernel, &mut PlanSource::Fresh)
}

/// [`object_get_vara`] drawing its compiled schedule from an explicit
/// [`PlanSource`]: fresh compiles, a per-run cache, or the multi-job
/// service's process-wide shared cache (which tags each lookup with the
/// job id so cross-job reuse is counted). Every rank must pass an
/// equivalent source; only the collective-computing path plans —
/// `io.blocking` and independent modes ignore it.
pub fn object_get_vara_planned(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    io: &ObjectIo,
    kernel: &dyn MapKernel,
    plans: &mut PlanSource<'_>,
) -> CcOutcome {
    let slab = Hyperslab::new(io.start.clone(), io.count.clone());
    if io.blocking {
        // io.block = true: "essentially identical to the traditional
        // MPI-IO code" (paper §III-A).
        return run_blocking(comm, pfs, file, var, &slab, io, kernel);
    }
    match io.mode {
        IoMode::Independent => run_independent(comm, pfs, file, var, &slab, io, kernel),
        IoMode::Collective => {
            run_collective_computing(comm, pfs, file, var, &slab, io, kernel, plans)
        }
    }
}

/// Blocking escape hatch: delegate to the traditional baseline and adapt.
fn run_blocking(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    slab: &Hyperslab,
    io: &ObjectIo,
    kernel: &dyn MapKernel,
) -> CcOutcome {
    let root = io.reduce.root();
    // The traditional path shuffles *raw field bytes*, so an exact kernel
    // (min/max/located selection) must not see lossily-perturbed values:
    // clamp error-bounded hints to lossless before the read.
    let mut hints = io.hints.clone();
    hints.compression = hints.compression.clamp_for(kernel.tolerance());
    let (global, mine, rep) =
        traditional_get_vara_partial(comm, pfs, file, var, slab, &hints, kernel, root);
    CcOutcome {
        my_result: Some(kernel.finalize(&mine)),
        global: global.as_ref().map(|p| kernel.finalize(p)),
        global_partial: global,
        per_rank: None,
        report: CcReport {
            start: rep.start,
            end: rep.end,
            bytes_read: rep.two_phase.bytes_read,
            local_reduction: rep.reduce_elapsed,
            segments: rep.segments,
            ..CcReport::default()
        },
    }
}

/// Independent mode: every rank reads and maps its own request, then the
/// partials ride a plain reduce.
fn run_independent(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    slab: &Hyperslab,
    io: &ObjectIo,
    kernel: &dyn MapKernel,
) -> CcOutcome {
    let mut report = CcReport {
        start: comm.clock(),
        ..CcReport::default()
    };
    let mut scratch = Scratch::new();
    let request = var.byte_extents(slab);
    let (bytes, io_rep) = independent_read(comm, pfs, file, &request);
    report.bytes_read = io_rep.bytes_read;
    report
        .segments
        .push(Segment::new(report.start, comm.clock(), Activity::Wait));
    var.dtype().decode_into(&bytes, &mut scratch.values);
    let compute_start = comm.clock();
    let partial = map_buffer(var, slab, kernel, &scratch.values);
    comm.advance(comm.model().cpu.map_time(bytes.len()));
    report
        .segments
        .push(Segment::new(compute_start, comm.clock(), Activity::User));
    let global = final_reduce(comm, kernel, &partial, io.reduce.root(), &mut scratch);
    report.end = comm.clock();
    CcOutcome {
        my_result: Some(kernel.finalize(&partial)),
        global: global.as_ref().map(|p| kernel.finalize(p)),
        global_partial: global,
        per_rank: None,
        report,
    }
}

/// The collective-computing path proper.
#[allow(clippy::too_many_arguments)]
fn run_collective_computing(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    slab: &Hyperslab,
    io: &ObjectIo,
    kernel: &dyn MapKernel,
    plans: &mut PlanSource<'_>,
) -> CcOutcome {
    let mut report = CcReport {
        start: comm.clock(),
        ..CcReport::default()
    };
    // Element-aligned planning: chunk and domain boundaries must never
    // split an element, or the logical map could not reconstruct it. If
    // the stripe size is not element-aligned the planner falls back to
    // stripe-aligned-even partitioning on its own.
    let mut hints = io
        .hints
        .clone()
        .element_aligned(var.dtype().size())
        .striped_as(file.layout());
    // Error bounds are a kernel property: only kernels declaring bounded-
    // error tolerance may consume lossily-compressed field bytes; exact
    // (selection) kernels are clamped to lossless framing. The clamped
    // value also keys the plan cache, so the two classes never share a
    // compiled schedule.
    hints.compression = hints.compression.clamp_for(kernel.tolerance());

    let request = var.byte_extents(slab);
    let schedule = exchange_and_plan(comm, &request, &hints, plans);
    // The request exchange is collective, so the tag counter is symmetric
    // across ranks here and this operation's result tag is unique to it.
    let results_tag = comm.next_engine_tag(TAG_RESULTS);

    // --- Phase 1 + map: the aggregator pipeline (paper Fig. 7). ---------
    // One scratch arena serves the whole operation: chunk bytes, decoded
    // values, and shuffle words all reuse their high-water allocations.
    let mut scratch = Scratch::new();
    let mut inter = IntermediateSet::new();
    let mut agg_done = comm.clock();
    if let Some(agg_idx) = schedule.aggregator_index(comm.rank()) {
        agg_done = run_map_pipeline(
            comm,
            pfs,
            file,
            var,
            &schedule,
            agg_idx,
            &hints,
            kernel,
            &mut inter,
            &mut scratch,
            &mut report,
        );
    }
    report.metadata_entries = inter.metadata_entries;
    report.metadata_bytes = inter.metadata_bytes;

    // --- Phase 2: shuffle of intermediate results + reduce. -------------
    let outcome = match io.reduce {
        ReduceMode::AllToOne { root } => reduce_all_to_one(
            comm,
            kernel,
            &schedule,
            &inter,
            agg_done,
            root,
            results_tag,
            &mut scratch,
            &mut report,
        ),
        ReduceMode::AllToAll { root } => reduce_all_to_all(
            comm,
            kernel,
            &schedule,
            &inter,
            agg_done,
            root,
            results_tag,
            &mut scratch,
            &mut report,
        ),
    };
    report.end = comm.clock();
    CcOutcome {
        my_result: outcome.0,
        global: outcome.2.as_ref().map(|p| kernel.finalize(p)),
        global_partial: outcome.2,
        per_rank: outcome.1,
        report,
    }
}

/// What the reduce phases hand back: `(my_result, per_rank,
/// global_partial)`.
type ReduceOutcome = (
    Option<Vec<f64>>,
    Option<Vec<Option<Vec<f64>>>>,
    Option<Partial>,
);

/// Runs one aggregator's read→construct→map pipeline over its file domain
/// through [`read_ahead`]. Returns the time the last map completed.
#[allow(clippy::too_many_arguments)]
fn run_map_pipeline(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    schedule: &PlanSchedule,
    agg_idx: usize,
    hints: &Hints,
    kernel: &dyn MapKernel,
    inter: &mut IntermediateSet,
    scratch: &mut Scratch,
    report: &mut CcReport,
) -> SimTime {
    let cpu = comm.model().cpu.clone();
    let esize = var.dtype().size() as usize;
    // The map soaks up the node's idle cores (see crate docs): each
    // aggregator can draw on cores_per_node / aggregators_per_node workers.
    let workers =
        (comm.model().topology.cores_per_node / hints.aggregators_per_node).max(1) as f64;
    let start = comm.clock();
    // The map lane models the node-parallel map workers of Fig. 7; the
    // I/O lane of `read_ahead` reads ahead of it.
    let mut map_lane = Lane::free_from(start);
    let mut blocks: Vec<(u64, u64)> = Vec::new();
    let (last, bytes_read) = read_ahead(
        pfs,
        file,
        schedule,
        agg_idx,
        hints.pipeline_depth,
        start,
        &mut scratch.slots,
        &mut report.segments,
        |staged, segments| {
            // Construct logical runs and map them, per destination owner
            // and per covered block — a merged iteration's bounding range
            // spans stride gaps whose bytes belong to other aggregators.
            blocks.clear();
            schedule.chunk_blocks(agg_idx, staged.iter, |blo, bhi| blocks.push((blo, bhi)));
            let mut mapped_bytes = 0usize;
            let mut entries = 0u64;
            let mut meta_bytes = 0u64;
            for &dst in schedule.destinations(agg_idx, staged.iter) {
                let acc = inter.partial_mut(dst, kernel);
                for &(blo, bhi) in &blocks {
                    let runs = construct_runs(var, &schedule.plan().requests[dst], blo, bhi);
                    for run in &runs {
                        let off = (var.byte_of_elem(run.start_elem) - staged.lo) as usize;
                        let len = run.len as usize * esize;
                        // Decode into the reused scratch slice: the kernel
                        // folds over `&[f64]` with no per-run allocation.
                        var.dtype()
                            .decode_into(&staged.bytes[off..off + len], &mut scratch.values);
                        kernel.map(acc, run.start_elem, &scratch.values);
                        mapped_bytes += len;
                        entries += 1;
                        meta_bytes += run.metadata_bytes(var);
                    }
                }
            }
            inter.note_metadata(entries, meta_bytes);

            let construct_cost = cpu.metadata_time(entries as usize);
            let map_cost = cpu.map_time(mapped_bytes).scale(1.0 / workers) + construct_cost;
            report.local_reduction += construct_cost;
            let map_start = staged.done.max(map_lane.free_at());
            let map_done = map_lane.acquire(staged.done, map_cost);
            segments.push(Segment::new(map_start, map_done, Activity::User));
            report.iterations.push(CcIterTiming {
                read: staged.done.saturating_since(staged.ready),
                map: map_cost,
            });
            // The slot is reusable once the kernel has folded its last run.
            map_done
        },
    );
    report.bytes_read += bytes_read;
    last
}

/// All-to-one reduce: every active aggregator ships its whole intermediate
/// set to `root`; the root constructs per-owner results and reduces them.
#[allow(clippy::too_many_arguments)]
fn reduce_all_to_one(
    comm: &mut Comm,
    kernel: &dyn MapKernel,
    schedule: &PlanSchedule,
    inter: &IntermediateSet,
    agg_done: SimTime,
    root: usize,
    tag: TagValue,
    scratch: &mut Scratch,
    report: &mut CcReport,
) -> ReduceOutcome {
    let cpu = comm.model().cpu.clone();
    let active: Vec<usize> = (0..schedule.plan().aggregators.len())
        .filter(|&a| schedule.is_active(a))
        .map(|a| schedule.aggregator_rank(a))
        .collect();

    // Sender side (aggregators): serialize into the scratch word buffer,
    // then onto a pooled wire buffer.
    let mut done = agg_done;
    if active.contains(&comm.rank()) && comm.rank() != root {
        inter.encode_all_into(&mut scratch.words);
        report.result_words_shuffled += scratch.words.len() as u64;
        let depart =
            agg_done + cpu.memcpy_time(scratch.words.len() * 8) + comm.model().net.send_cost();
        let mut bytes = comm.take_buf();
        cc_mpi::elem::encode_slice_into(&scratch.words, &mut bytes);
        comm.post_bytes_at(root, tag, bytes, depart);
        done = done.max(depart);
    }

    // Root side: construct and reduce.
    if comm.rank() == root {
        let mut per_owner: Vec<Option<Partial>> = vec![None; comm.nprocs()];
        let mut absorb = |pairs: Vec<(usize, Partial)>, inter_set: &mut u64| {
            for (owner, p) in pairs {
                *inter_set += 1;
                match &mut per_owner[owner] {
                    Some(acc) => kernel.combine(acc, &p),
                    slot => *slot = Some(p),
                }
            }
        };
        let mut combines = 0u64;
        inter.encode_all_into(&mut scratch.words);
        absorb(IntermediateSet::decode(&scratch.words), &mut combines);
        for &agg in &active {
            if agg == root {
                continue;
            }
            let (bytes, info) = comm.recv_bytes_no_clock(agg, tag);
            cc_mpi::elem::decode_into(&bytes, &mut scratch.words);
            comm.recycle_buf(bytes);
            absorb(IntermediateSet::decode(&scratch.words), &mut combines);
            done = done.max(info.arrival);
        }
        let reduce_start = done;
        let mut global = kernel.identity();
        let mut any = false;
        for p in per_owner.iter().flatten() {
            kernel.combine(&mut global, p);
            any = true;
        }
        let reduce_cost = cpu.reduce_time(combines as usize + comm.nprocs());
        done += reduce_cost;
        report.local_reduction += reduce_cost;
        report
            .segments
            .push(Segment::new(reduce_start, done, Activity::User));
        comm.advance_to(done);
        let per_rank: Vec<Option<Vec<f64>>> = per_owner
            .iter()
            .map(|p| p.as_ref().map(|p| kernel.finalize(p)))
            .collect();
        let my = per_rank[root].clone();
        return (my, Some(per_rank), any.then_some(global));
    }

    comm.advance_to(done);
    (None, None, None)
}

/// All-to-all reduce: each aggregator ships each owner its partial; owners
/// reduce locally, then a tree reduce produces the global result at `root`.
#[allow(clippy::too_many_arguments)]
fn reduce_all_to_all(
    comm: &mut Comm,
    kernel: &dyn MapKernel,
    schedule: &PlanSchedule,
    inter: &IntermediateSet,
    agg_done: SimTime,
    root: usize,
    tag: TagValue,
    scratch: &mut Scratch,
    report: &mut CcReport,
) -> ReduceOutcome {
    let cpu = comm.model().cpu.clone();

    // Sender side: one small message per owner with data in my domain,
    // serialized through the scratch words and a pooled wire buffer.
    let mut shuffle_lane = Lane::free_from(agg_done);
    let owners: Vec<usize> = inter.owners().collect();
    for owner in owners {
        if owner == comm.rank() {
            continue;
        }
        inter.encode_owner_into(owner, &mut scratch.words);
        report.result_words_shuffled += scratch.words.len() as u64;
        let same_node = comm.model().topology.same_node(comm.rank(), owner);
        let cost = cpu.memcpy_time(scratch.words.len() * 8)
            + comm.model().net.send_cost()
            + comm.model().net.wire_time(scratch.words.len() * 8, same_node)
            + comm.model().net.msg_cost(same_node);
        let depart = shuffle_lane.acquire(agg_done, cost);
        let mut bytes = comm.take_buf();
        cc_mpi::elem::encode_slice_into(&scratch.words, &mut bytes);
        comm.post_bytes_at(owner, tag, bytes, depart);
    }
    let mut done = agg_done.max(shuffle_lane.free_at());

    // Receiver side: my partials come from every aggregator whose domain
    // holds any of my bytes — exactly the aggregators appearing in my
    // source list, which is (aggregator, iteration)-ordered, so adjacent
    // dedup suffices.
    let mut mine = kernel.identity();
    if let Some(p) = inter.get(comm.rank()) {
        kernel.combine(&mut mine, p);
    }
    let mut my_senders: Vec<usize> = Vec::new();
    for &(a, _) in schedule.sources_for(comm.rank()) {
        let agg_rank = schedule.aggregator_rank(a);
        if agg_rank != comm.rank() && my_senders.last() != Some(&agg_rank) {
            my_senders.push(agg_rank);
        }
    }
    let mut combines = 0usize;
    for src in my_senders {
        let (bytes, info) = comm.recv_bytes_no_clock(src, tag);
        cc_mpi::elem::decode_into(&bytes, &mut scratch.words);
        comm.recycle_buf(bytes);
        for (owner, p) in IntermediateSet::decode(&scratch.words) {
            assert_eq!(
                owner,
                comm.rank(),
                "rank {}: misrouted intermediate result from rank {src} \
                 (owner {owner}, tag {tag:#x})",
                comm.rank(),
            );
            kernel.combine(&mut mine, &p);
            combines += 1;
        }
        done = done.max(info.arrival);
    }
    let local_cost = cpu.reduce_time(combines);
    done += local_cost;
    report.local_reduction += local_cost;
    comm.advance_to(done);

    // Final global reduce over the per-rank results.
    let global = final_reduce(comm, kernel, &mine, root, scratch);
    (Some(kernel.finalize(&mine)), None, global)
}

/// Tree-reduces `partial` to `root`; returns the global partial at the
/// root, `None` elsewhere.
fn final_reduce(
    comm: &mut Comm,
    kernel: &dyn MapKernel,
    partial: &Partial,
    root: usize,
    scratch: &mut Scratch,
) -> Option<Partial> {
    scratch.words.clear();
    partial.write_words_into(&mut scratch.words);
    comm.reduce(root, &scratch.words, &PartialReduceOp(kernel))
        .map(|words| Partial::from_words(&words).0)
}
