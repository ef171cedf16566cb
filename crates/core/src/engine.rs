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
//! In non-blocking mode (the paper's default) the map of iteration `i`
//! runs on a separate lane and overlaps the read of iteration `i+1`, with
//! the map rate scaled by the node's idle cores (see the crate docs).

use cc_array::{construct_runs, Hyperslab, Variable};
use cc_model::{BufferRing, Lane, SimTime};
use cc_mpi::comm::TagValue;
use cc_mpi::Comm;
use cc_mpiio::exchange::exchange_and_plan;
use cc_mpiio::{independent_read, Hints, PlanCache, PlanSchedule, PlanSource, Striping};
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::baseline::{map_buffer, traditional_get_vara_partial};
use crate::intermediate::IntermediateSet;
use crate::kernel::{MapKernel, Partial, PartialReduceOp};
use crate::object::{IoMode, ObjectIo, ReduceMode};
use crate::scratch::Scratch;

/// Tag for intermediate-result messages.
// Tag base for intermediate-result shuffles; each operation stamps its
// sequence number into the low bits (see `Comm::next_engine_tag`), so
// back-to-back operations never cross-match.
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
    object_get_vara_cached(comm, pfs, file, var, io, kernel, None)
}

/// [`object_get_vara`] with an optional compiled-plan cache: iterative
/// sweeps pass one cache across steps so that steps with an identical (or
/// constant-offset-shifted) access shape reuse the compiled schedule
/// instead of replanning. Every rank must pass a cache with identical
/// contents (or none); the cache only matters on the collective
/// non-blocking path — blocking and independent modes ignore it.
pub fn object_get_vara_cached(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    var: &Variable,
    io: &ObjectIo,
    kernel: &dyn MapKernel,
    cache: Option<&mut PlanCache>,
) -> CcOutcome {
    object_get_vara_planned(
        comm,
        pfs,
        file,
        var,
        io,
        kernel,
        &mut PlanSource::from_option(cache),
    )
}

/// [`object_get_vara`] drawing its compiled schedule from an explicit
/// [`PlanSource`]: fresh compiles, a per-run cache, or the multi-job
/// service's process-wide shared cache (which tags each lookup with the
/// job id so cross-job reuse is counted). Every rank must pass an
/// equivalent source; the source only matters on the collective
/// non-blocking path — blocking and independent modes ignore it.
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
    let esize = var.dtype().size();
    // Element-aligned planning: chunk and domain boundaries must never
    // split an element, or the logical map could not reconstruct it.
    let mut hints = io.hints.clone();
    // Error bounds are a kernel property: only kernels declaring bounded-
    // error tolerance may consume lossily-compressed field bytes; exact
    // (selection) kernels are clamped to lossless framing. The clamped
    // value also keys the plan cache, so the two classes never share a
    // compiled schedule.
    hints.compression = hints.compression.clamp_for(kernel.tolerance());
    hints.cb_buffer_size = round_up(hints.cb_buffer_size.max(esize), esize);
    hints.align_domains_to = Some(match hints.align_domains_to {
        Some(a) => lcm(a.max(1), esize),
        None => esize,
    });
    // Striping rides the hints (ROMIO's striping_unit/striping_factor), so
    // stripe-aware partition strategies and the plan-cache key see the
    // open file's layout. If the stripe size is not element-aligned the
    // planner falls back to stripe-aligned-even partitioning on its own.
    hints.striping = Some(Striping::from(file.layout()));

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

/// Runs one aggregator's read→construct→map pipeline over its file domain.
/// Returns the time the last map completed.
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
    // The I/O lane models the paper's I/O thread; the map lane models the
    // node-parallel map workers (Fig. 7). With unbounded `PipelineDepth`,
    // reads are gated only by the I/O lane — the runtime is assumed to
    // have enough staging buffers to keep the disk streaming, which also
    // keeps every rank's file-system requests causally close in virtual
    // time (the OST queues are shared state; see cc-pfs::ost). A bounded
    // depth stages iterations through a [`BufferRing`] over that many
    // scratch slots: the read of iteration `i` additionally waits for
    // iteration `i - depth` to finish mapping out of its slot. Blocking
    // mode is depth 1 — read and map strictly alternate.
    let mut io_lane = Lane::free_from(start);
    let mut map_lane = Lane::free_from(start);
    let depth = if hints.nonblocking {
        hints.pipeline_depth.bound()
    } else {
        Some(1)
    };
    let mut ring = depth.map(BufferRing::new);
    let iters = schedule.active_iterations(agg_idx);
    let nslots = depth.unwrap_or(1).min(iters.len()).max(1);
    scratch.ensure_slots(nslots);
    // Per-iteration read bookkeeping (`(rlo, ready, read_done)`), filled
    // at issue time and consumed at map time `depth` iterations later.
    let mut reads: Vec<Option<(u64, SimTime, SimTime)>> = vec![None; iters.len()];
    let mut issued = 0usize;
    let mut last = start;

    let mut blocks: Vec<(u64, u64)> = Vec::new();
    for (pos, &iter) in iters.iter().enumerate() {
        // Issue stage: software-pipelined read-ahead — book the OST
        // extents of up to `depth` iterations while earlier ones map.
        let horizon = match depth {
            Some(d) => iters.len().min(pos + d),
            None => pos + 1,
        };
        while issued < horizon {
            let j = issued;
            issued += 1;
            let ranges = schedule.read_ranges(agg_idx, iters[j]);
            let Some(&(rlo, _)) = ranges.first() else {
                continue;
            };
            let floor = ring.as_ref().map_or(SimTime::ZERO, |r| r.available(j));
            let ready = io_lane.free_at().max(floor);
            let read_done =
                pfs.read_multi(file, rlo, ranges, ready, &mut scratch.slots[j % nslots]);
            io_lane.advance_to(read_done);
            report.bytes_read += ranges.iter().map(|&(_, len)| len).sum::<u64>();
            report
                .segments
                .push(Segment::new(ready, read_done, Activity::Wait));
            reads[j] = Some((rlo, ready, read_done));
        }
        let Some((rlo, ready, read_done)) = reads[pos] else {
            // Nothing was read for this iteration; carry the slot's
            // previous drain time forward.
            if let Some(r) = ring.as_mut() {
                let t = r.available(pos);
                r.drain(pos, t);
            }
            continue;
        };

        // Construct logical runs and map them, per destination owner and
        // per covered block — a merged iteration's bounding range spans
        // stride gaps whose bytes belong to other aggregators.
        blocks.clear();
        schedule.chunk_blocks(agg_idx, iter, |blo, bhi| blocks.push((blo, bhi)));
        let mut mapped_bytes = 0usize;
        let mut entries = 0u64;
        let mut meta_bytes = 0u64;
        for &dst in schedule.destinations(agg_idx, iter) {
            let acc = inter.partial_mut(dst, kernel);
            for &(blo, bhi) in &blocks {
                let runs = construct_runs(var, &schedule.plan().requests[dst], blo, bhi);
                for run in &runs {
                    let off = (var.byte_of_elem(run.start_elem) - rlo) as usize;
                    let len = run.len as usize * esize;
                    // Decode into the reused scratch slice: the kernel folds
                    // over `&[f64]` with no per-run allocation.
                    var.dtype().decode_into(
                        &scratch.slots[pos % nslots][off..off + len],
                        &mut scratch.values,
                    );
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
        let map_start = read_done.max(map_lane.free_at());
        let map_done = map_lane.acquire(read_done, map_cost);
        // The slot is reusable once the kernel has folded its last run.
        if let Some(r) = ring.as_mut() {
            r.drain(pos, map_done);
        }
        report
            .segments
            .push(Segment::new(map_start, map_done, Activity::User));
        report.iterations.push(CcIterTiming {
            read: read_done.saturating_since(ready),
            map: map_cost,
        });
        last = last.max(map_done);
    }
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

/// Rounds `v` up to the next multiple of `m`.
fn round_up(v: u64, m: u64) -> u64 {
    v.div_ceil(m) * m
}

/// Least common multiple.
fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_helpers() {
        assert_eq!(round_up(7, 4), 8);
        assert_eq!(round_up(8, 4), 8);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(8, 8), 8);
        assert_eq!(gcd(12, 18), 6);
    }
}
