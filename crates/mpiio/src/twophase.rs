//! The two-phase collective read engine.
//!
//! Phase 1 (I/O): each aggregator reads the covering extent of each
//! collective-buffer chunk of its file domain — large, contiguous,
//! stripe-friendly reads. Phase 2 (shuffle): the aggregator scatters the
//! pieces of the chunk to the ranks that requested them. The aggregator
//! loop is [`read_ahead`] with the shuffle as its drain step:
//! by default (the configuration profiled in the paper's Fig. 1) the
//! shuffle of iteration `i` overlaps the read of iteration `i+1`, and the
//! [`crate::hints::PipelineDepth`] hint bounds how many staging buffers
//! may be in flight (depth 1 is blocking two-phase I/O, depth 2 the
//! classic double buffer).
//!
//! Real bytes flow: the returned buffer contains exactly the requested
//! bytes in request order.

use cc_model::SimTime;
use cc_mpi::comm::{TagValue, SEQ_MASK};
use cc_mpi::{Comm, NodeView};
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::exchange::exchange_and_plan;
use crate::extent::{OffsetList, Piece};
use crate::hints::Hints;
use crate::pipeline::read_ahead;
use crate::schedule::{PlanSchedule, PlanSource};
use crate::shuffle::{pack, recv_shuffle, remote_chunks, unpack, ShuffleLane};

/// Tag base for read-shuffle messages (outside the user and collective
/// spaces). Each collective stamps its sequence number into the low bits
/// via [`Comm::next_engine_tag`], so back-to-back collectives never
/// cross-match even when a fast rank races ahead into the next call.
pub(crate) const TAG_SHUFFLE: TagValue = 0x4000_0000;

/// Tag base for coalesced read-shuffle frames: when hierarchical paths are
/// active, an aggregator sends the pieces of one chunk bound for one
/// *remote node* as a single frame to that node's leader instead of one
/// message per destination rank.
pub(crate) const TAG_SHUFFLE_FRAME: TagValue = 0x1000_0000;

/// Tag base for the intra-node relay leg: the node leader splits a
/// received frame into its members' sections and forwards each as one
/// cheap intra-node message (its own section rides the self-send short
/// circuit).
pub(crate) const TAG_SHUFFLE_RELAY: TagValue = 0x2000_0000;

/// Durations of one aggregator iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationTiming {
    /// Time the read phase of this iteration took (including OST queueing).
    pub read: SimTime,
    /// The part of `read` spent queueing: actual read duration minus the
    /// fault-free, contention-free service time of the same extent. Under
    /// an injected OST fault this is where the degradation shows up.
    pub queue: SimTime,
    /// Time the shuffle phase of this iteration took (packing + posting).
    pub shuffle: SimTime,
}

/// What one rank observed during a collective read.
#[derive(Debug, Clone, Default)]
pub struct TwoPhaseReport {
    /// Per-iteration timings — non-empty only on aggregators.
    pub iterations: Vec<IterationTiming>,
    /// Bytes this rank read from the file system (aggregator role).
    pub bytes_read: u64,
    /// Bytes this rank sent during the shuffle (aggregator role).
    pub bytes_shuffled: u64,
    /// Virtual time when this rank entered the collective.
    pub start: SimTime,
    /// Virtual time when this rank's buffer was complete.
    pub end: SimTime,
    /// Activity segments for CPU profiling (Fig. 2): reads are `Wait`,
    /// shuffle packing/posting is `Sys`.
    pub segments: Vec<Segment>,
}

impl TwoPhaseReport {
    /// Total time this rank spent in the collective.
    pub fn elapsed(&self) -> SimTime {
        self.end.saturating_since(self.start)
    }

    /// Sum of per-iteration read durations (aggregators only).
    pub fn read_total(&self) -> SimTime {
        self.iterations.iter().map(|i| i.read).sum()
    }

    /// Sum of per-iteration shuffle durations (aggregators only).
    pub fn shuffle_total(&self) -> SimTime {
        self.iterations.iter().map(|i| i.shuffle).sum()
    }

    /// Sum of per-iteration queueing time (aggregators only) — the share
    /// of the read phase attributable to OST contention or degradation.
    pub fn queue_total(&self) -> SimTime {
        self.iterations.iter().map(|i| i.queue).sum()
    }

    /// Ranks that entered the collective more than `factor` times later
    /// than the median entry time, given every rank's report in rank
    /// order. Late entry — not long residence — is the straggler signal:
    /// a slow rank arrives at a later virtual clock, while its *peers*
    /// are the ones whose residence inflates waiting for its pieces.
    /// Returns an empty list for an empty slice.
    pub fn stragglers(reports: &[TwoPhaseReport], factor: f64) -> Vec<usize> {
        if reports.is_empty() {
            return Vec::new();
        }
        let mut starts: Vec<SimTime> = reports.iter().map(|r| r.start).collect();
        starts.sort();
        let median = starts[starts.len() / 2];
        reports
            .iter()
            .enumerate()
            .filter(|(_, r)| r.start > median.scale(factor))
            .map(|(rank, _)| rank)
            .collect()
    }
}

/// Collectively reads every rank's `my_request` from `file`. Returns the
/// requested bytes (in request-buffer order) and this rank's report.
/// Must be called by all ranks of the communicator.
pub fn collective_read(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
    hints: &Hints,
) -> (Vec<u8>, TwoPhaseReport) {
    collective_read_planned(comm, pfs, file, my_request, hints, &mut PlanSource::Fresh)
}

/// [`collective_read`] drawing its compiled schedule from an explicit
/// [`PlanSource`] — fresh compile, per-run cache, or the multi-job
/// service's process-wide shared cache. Every rank must pass an equivalent
/// source (the schedule decision must stay symmetric).
pub fn collective_read_planned(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
    hints: &Hints,
    plans: &mut PlanSource<'_>,
) -> (Vec<u8>, TwoPhaseReport) {
    // Entry time is captured before the request exchange: the exchange is
    // itself a collective that synchronizes clocks, so capturing it later
    // would erase the late arrival of a straggler rank.
    let mut report = TwoPhaseReport {
        start: comm.clock(),
        ..TwoPhaseReport::default()
    };
    let hints = &hints.clone().striped_as(file.layout());
    let schedule = exchange_and_plan(comm, my_request, hints, plans);
    // Every rank passed through the request exchange above, so the engine
    // tag counter is identical on all ranks: this collective's shuffle
    // traffic gets a unique tag, distinct from the previous and next calls.
    let tag = comm.next_engine_tag(TAG_SHUFFLE);
    let hier = comm.hier_view();
    let mut buf = vec![0u8; my_request.total_bytes() as usize];

    // --- Aggregator role: read chunks and scatter pieces. --------------
    let mut agg_done = comm.clock();
    if let Some(agg_idx) = schedule.aggregator_index(comm.rank()) {
        agg_done = run_aggregator(
            comm,
            pfs,
            file,
            &schedule,
            agg_idx,
            tag,
            hints,
            hier.as_ref(),
            &mut report,
            &mut buf,
        );
    }

    // --- Leader role: relay coalesced frames to the node's members. ----
    if let Some(view) = hier.as_ref().filter(|v| v.is_leader(comm.rank())) {
        agg_done = agg_done.max(relay_read_frames(comm, &schedule, view, tag, hints, &mut report));
    }

    // --- Receiver role: collect pieces from every sending chunk. -------
    let mut done = agg_done;
    let cpu = comm.model().cpu.clone();
    let relay_tag = TAG_SHUFFLE_RELAY | (tag & SEQ_MASK);
    for (a, iter, pieces) in schedule.sources_with_pieces(comm.rank()) {
        let agg_rank = schedule.aggregator_rank(a);
        if agg_rank == comm.rank() {
            continue; // own pieces were placed locally by the aggregator loop
        }
        // Remote-node chunks arrive re-shuffled through the node leader;
        // same-node chunks come straight from the aggregator.
        let (src, src_tag) = match hier.as_ref() {
            Some(view) if view.node_of(agg_rank) != view.node => (view.leader, relay_tag),
            _ => (agg_rank, tag),
        };
        let (payload, arrival, decode) = recv_shuffle(comm, src, src_tag, &hints.compression);
        let used = unpack(&mut buf, &payload, pieces, |p| p.buf_offset as usize);
        assert_eq!(
            used,
            payload.len(),
            "rank {}: shuffle payload length mismatch from rank {src} \
             (aggregator {a}, iteration {iter}, tag {src_tag:#x})",
            comm.rank(),
        );
        let unpacked = arrival + decode + cpu.memcpy_time(payload.len());
        comm.recycle_buf(payload);
        done = done.max(unpacked);
    }
    if done > agg_done {
        report
            .segments
            .push(Segment::new(agg_done, done, Activity::Wait));
    }
    comm.advance_to(done);
    report.end = comm.clock();
    (buf, report)
}

/// Runs the aggregator loop for `agg_idx` through [`read_ahead`],
/// draining each staged chunk by packing and posting its pieces; returns
/// the time the last shuffle completed. Fills `report` and places this
/// rank's own pieces directly into `buf`.
#[allow(clippy::too_many_arguments)]
fn run_aggregator(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    schedule: &PlanSchedule,
    agg_idx: usize,
    tag: TagValue,
    hints: &Hints,
    hier: Option<&NodeView>,
    report: &mut TwoPhaseReport,
    buf: &mut [u8],
) -> SimTime {
    let cpu = comm.model().cpu.clone();
    let start = comm.clock();
    // The shuffle lane is the paper's "shuffle thread" (Fig. 7): it drains
    // iteration i while the I/O lane reads ahead.
    let mut shuffle = ShuffleLane::new(start, &hints.compression);
    let frame_tag = TAG_SHUFFLE_FRAME | (tag & SEQ_MASK);
    // With hierarchical paths active, only same-node destinations are
    // served directly; every remote node gets one coalesced frame.
    let (direct_lo, direct_hi) = match hier {
        Some(view) => (view.node_lo, view.node_hi),
        None => (0, comm.nprocs()),
    };
    let mut slots = Vec::new();
    let (last, bytes_read) = read_ahead(
        pfs,
        file,
        schedule,
        agg_idx,
        hints.pipeline_depth,
        start,
        &mut slots,
        &mut report.segments,
        |staged, segments| {
            let at = |p: &Piece| (p.extent.offset - staged.lo) as usize;
            let ideal: SimTime = staged
                .ranges
                .iter()
                .map(|&(lo, len)| pfs.ideal_read_time(file, lo, len))
                .sum();
            let read_dur = staged.done.saturating_since(staged.ready);
            let shuffle_start = staged.done.max(shuffle.lane.free_at());
            let mut shuffle_end = shuffle_start;
            for (dst, pieces) in
                schedule.dests_with_pieces_in(agg_idx, staged.iter, direct_lo, direct_hi)
            {
                let piece_bytes: usize = pieces.iter().map(|p| p.extent.len as usize).sum();
                if dst == comm.rank() {
                    // Local placement: just a copy, no message.
                    let t = shuffle.lane.acquire(staged.done, cpu.memcpy_time(piece_bytes));
                    for p in pieces {
                        let (src, len) = (at(p), p.extent.len as usize);
                        buf[p.buf_offset as usize..][..len]
                            .copy_from_slice(&staged.bytes[src..src + len]);
                    }
                    shuffle_end = shuffle_end.max(t);
                    continue;
                }
                let mut payload = comm.take_buf();
                payload.reserve(piece_bytes);
                pack(&mut payload, staged.bytes, pieces, at);
                let (depart, logical) =
                    shuffle.post(comm, staged.done, dst, tag, payload, pieces.len());
                report.bytes_shuffled += logical as u64;
                shuffle_end = shuffle_end.max(depart);
            }
            // One header-less frame per remote node holding pieces of this
            // chunk: sections are the per-destination payloads in ascending
            // rank order, and both ends derive section sizes from the
            // shared schedule, so no framing metadata crosses the wire.
            // Coalescing pays the inter-node posting overhead (and the
            // codec, when compression is on) once per node instead of once
            // per destination rank.
            if let Some(view) = hier {
                for node in (0..view.nodes_used).filter(|&n| n != view.node) {
                    let (lo, hi) = view.node_range(node);
                    // Pre-size the frame from the schedule's piece tables
                    // so coalescing never reallocates mid-pack.
                    let (frame_bytes, frame_pieces) = schedule
                        .dests_with_pieces_in(agg_idx, staged.iter, lo, hi)
                        .flat_map(|(_, ps)| ps)
                        .fold((0usize, 0usize), |(b, n), p| (b + p.extent.len as usize, n + 1));
                    if frame_bytes == 0 {
                        continue;
                    }
                    let mut frame = comm.take_buf();
                    frame.reserve(frame_bytes);
                    for (_, pieces) in schedule.dests_with_pieces_in(agg_idx, staged.iter, lo, hi) {
                        pack(&mut frame, staged.bytes, pieces, at);
                    }
                    let leader = view.leader_of_node(node);
                    let (depart, logical) =
                        shuffle.post(comm, staged.done, leader, frame_tag, frame, frame_pieces);
                    report.bytes_shuffled += logical as u64;
                    shuffle_end = shuffle_end.max(depart);
                }
            }
            segments.push(Segment::new(shuffle_start, shuffle_end, Activity::Sys));
            report.iterations.push(IterationTiming {
                read: read_dur,
                queue: read_dur.saturating_since(ideal),
                shuffle: shuffle_end.saturating_since(shuffle_start),
            });
            // The slot is reusable once the last piece was packed out of it.
            shuffle_end
        },
    );
    report.bytes_read += bytes_read;
    last
}

/// The node leader's relay loop: for every chunk whose aggregator lives on
/// a *remote* node and that holds pieces for this node, receives the
/// aggregator's coalesced frame and forwards each member's sections as one
/// intra-node message. The leader's own sections travel through the
/// self-send short circuit, so the receiver loop stays uniform. Frames are
/// header-less — section boundaries are recomputed from the shared
/// schedule. Returns the time the last relay departed.
fn relay_read_frames(
    comm: &mut Comm,
    schedule: &PlanSchedule,
    view: &NodeView,
    tag: TagValue,
    hints: &Hints,
    report: &mut TwoPhaseReport,
) -> SimTime {
    let frame_tag = TAG_SHUFFLE_FRAME | (tag & SEQ_MASK);
    let relay_tag = TAG_SHUFFLE_RELAY | (tag & SEQ_MASK);
    let start = comm.clock();
    let mut relay = ShuffleLane::new(start, &hints.compression);
    let mut last = start;
    for (a, agg_rank, iter) in remote_chunks(schedule, view) {
        let (frame, arrival, decode) = recv_shuffle(comm, agg_rank, frame_tag, &hints.compression);
        // A compressed frame is decoded once, on the relay lane.
        relay.lane.acquire(arrival, decode);
        let mut pos = 0usize;
        for (dst, pieces) in schedule.dests_with_pieces_in(a, iter, view.node_lo, view.node_hi) {
            let len: usize = pieces.iter().map(|p| p.extent.len as usize).sum();
            let mut payload = comm.take_buf();
            payload.extend_from_slice(&frame[pos..pos + len]);
            pos += len;
            // Splitting a contiguous section is a plain copy — the
            // per-piece scatter cost was already paid by the aggregator
            // when it packed the frame.
            let (depart, _) = relay.post(comm, arrival, dst, relay_tag, payload, 0);
            if dst != comm.rank() {
                report.bytes_shuffled += len as u64;
            }
            last = last.max(depart);
        }
        assert_eq!(
            pos,
            frame.len(),
            "rank {}: shuffle frame length mismatch from rank {agg_rank} \
             (aggregator {a}, iteration {iter}, tag {frame_tag:#x})",
            comm.rank(),
        );
        comm.recycle_buf(frame);
    }
    if last > start {
        report
            .segments
            .push(Segment::new(start, last, Activity::Sys));
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;
    use crate::hints::PipelineDepth;
    use cc_model::{ClusterModel, Topology};
    use cc_mpi::World;
    use cc_pfs::{MemBackend, StripeLayout};
    use std::sync::Arc;

    /// A file whose byte at offset i is (i % 251), striped over `osts`.
    fn make_fs(osts: usize, size: usize, stripe: u64, count: usize) -> Arc<Pfs> {
        let fs = Pfs::new(osts, cc_model::DiskModel {
            seek: 1e-3,
            ost_bandwidth: 1e8,
        });
        let data: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
        fs.create(
            "data",
            StripeLayout::round_robin(stripe, count, 0, osts),
            Box::new(MemBackend::from_bytes(data)),
        );
        Arc::new(fs)
    }

    fn expected_bytes(request: &OffsetList) -> Vec<u8> {
        let mut out = Vec::new();
        for e in request.extents() {
            out.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
        }
        out
    }

    fn run_collective(
        nprocs: usize,
        topo: Topology,
        requests: &[OffsetList],
        hints: Hints,
        fs: Arc<Pfs>,
    ) -> Vec<(Vec<u8>, TwoPhaseReport)> {
        let mut model = ClusterModel::test_tiny(1);
        model.topology = topo;
        let world = World::new(nprocs, model);
        let hints = &hints;
        let fs = &fs;
        world.run(move |comm| {
            let file = fs.open("data").expect("file exists");
            collective_read(comm, fs, &file, &requests[comm.rank()], hints)
        })
    }

    #[test]
    fn contiguous_blocks_reach_all_ranks() {
        let n = 4;
        let fs = make_fs(4, 4000, 256, 4);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 1000, 1000))
            .collect();
        let results = run_collective(
            n,
            Topology::new(2, 2),
            &requests,
            Hints::default(),
            fs,
        );
        for (r, (data, report)) in results.iter().enumerate() {
            assert_eq!(data, &expected_bytes(&requests[r]), "rank {r} data");
            assert!(report.end >= report.start);
        }
    }

    #[test]
    fn interleaved_noncontiguous_requests() {
        // Rank r takes every 4th 10-byte block starting at r*10 — the
        // classic pattern collective I/O exists for.
        let n = 4;
        let fs = make_fs(2, 4000, 128, 2);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..25)
                        .map(|k| Extent {
                            offset: r * 10 + k * 40,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let results = run_collective(
            n,
            Topology::new(1, 4),
            &requests,
            Hints {
                cb_buffer_size: 300,
                ..Hints::default()
            },
            fs,
        );
        for (r, (data, _)) in results.iter().enumerate() {
            assert_eq!(data, &expected_bytes(&requests[r]), "rank {r} data");
        }
    }

    #[test]
    fn empty_request_returns_empty_buffer() {
        let n = 3;
        let fs = make_fs(1, 1000, 512, 1);
        let mut requests = vec![OffsetList::empty(); n];
        requests[1] = OffsetList::contiguous(100, 50);
        let results = run_collective(
            n,
            Topology::new(1, 3),
            &requests,
            Hints::default(),
            fs,
        );
        assert!(results[0].0.is_empty());
        assert_eq!(results[1].0, expected_bytes(&requests[1]));
        assert!(results[2].0.is_empty());
    }

    #[test]
    fn multiple_iterations_per_aggregator() {
        let n = 2;
        let fs = make_fs(2, 10_000, 1024, 2);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 5000, 5000))
            .collect();
        let results = run_collective(
            n,
            Topology::new(1, 2),
            &requests,
            Hints {
                cb_buffer_size: 600, // forces ~9 iterations per aggregator
                aggregators_per_node: 2,
                ..Hints::default()
            },
            fs,
        );
        for (r, (data, report)) in results.iter().enumerate() {
            assert_eq!(data, &expected_bytes(&requests[r]));
            assert!(
                report.iterations.len() >= 8,
                "expected many iterations, got {}",
                report.iterations.len()
            );
        }
    }

    #[test]
    fn nonblocking_is_no_slower_than_blocking() {
        let n = 4;
        let mk_req = || -> Vec<OffsetList> {
            (0..n as u64)
                .map(|r| {
                    OffsetList::new(
                        (0..50)
                            .map(|k| Extent {
                                offset: r * 100 + k * 400,
                                len: 100,
                            })
                            .collect(),
                    )
                })
                .collect()
        };
        let run = |depth: PipelineDepth| {
            let fs = make_fs(2, 20_000, 4096, 2);
            let results = run_collective(
                n,
                Topology::new(2, 2),
                &mk_req(),
                Hints {
                    cb_buffer_size: 2000,
                    pipeline_depth: depth,
                    ..Hints::default()
                },
                fs,
            );
            results
                .iter()
                .map(|(_, rep)| rep.end)
                .max()
                .expect("nonempty")
        };
        let t_nb = run(PipelineDepth::Unbounded);
        let t_b = run(PipelineDepth::Sequential);
        assert!(
            t_nb <= t_b,
            "non-blocking {t_nb} should not exceed blocking {t_b}"
        );
    }

    #[test]
    fn aggregator_reports_read_and_shuffle() {
        let n = 2;
        let fs = make_fs(1, 8000, 4096, 1);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 4000, 4000))
            .collect();
        let results = run_collective(
            n,
            Topology::new(1, 2),
            &requests,
            Hints {
                cb_buffer_size: 1000,
                ..Hints::default()
            },
            fs,
        );
        let agg = &results[0].1;
        assert!(!agg.iterations.is_empty());
        assert!(agg.read_total() > SimTime::ZERO);
        assert!(agg.shuffle_total() > SimTime::ZERO);
        assert_eq!(agg.bytes_read, 8000);
        // Rank 0 shuffles rank 1's half (4000 bytes) to it.
        assert_eq!(agg.bytes_shuffled, 4000);
        // The non-aggregator has no iterations.
        assert!(results[1].1.iterations.is_empty());
    }

    #[test]
    fn consecutive_collectives_with_different_plans_do_not_cross_match() {
        // Two back-to-back collectives whose plans differ (different
        // aggregator counts and chunking), so the shuffle traffic of the
        // two calls flows between overlapping rank pairs. Sequence-stamped
        // tags must keep the matches separate even though a fast rank can
        // race into the second call while a peer still drains the first.
        let n = 4;
        let fs = make_fs(2, 8000, 512, 2);
        let requests_a: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 2000, 2000))
            .collect();
        // Second call: shifted, interleaved fine-grained requests.
        let requests_b: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..20)
                        .map(|k| Extent {
                            offset: r * 100 + k * 400,
                            len: 100,
                        })
                        .collect(),
                )
            })
            .collect();
        let mut model = ClusterModel::test_tiny(n);
        model.topology = Topology::new(2, 2);
        let world = World::new(n, model);
        let fs = &fs;
        let (ra, rb) = (&requests_a, &requests_b);
        let results = world.run(move |comm| {
            let file = fs.open("data").expect("file exists");
            let h1 = Hints {
                aggregators_per_node: 2,
                cb_buffer_size: 1000,
                ..Hints::default()
            };
            let h2 = Hints {
                aggregators_per_node: 1,
                cb_buffer_size: 700,
                ..Hints::default()
            };
            // No barrier between the calls: ranks may overlap them.
            let (d1, _) = collective_read(comm, fs, &file, &ra[comm.rank()], &h1);
            let (d2, _) = collective_read(comm, fs, &file, &rb[comm.rank()], &h2);
            (d1, d2)
        });
        for (r, (d1, d2)) in results.iter().enumerate() {
            assert_eq!(d1, &expected_bytes(&requests_a[r]), "rank {r} call 1");
            assert_eq!(d2, &expected_bytes(&requests_b[r]), "rank {r} call 2");
        }
    }

    #[test]
    fn slow_ost_fault_shifts_timings_but_not_data() {
        let n = 2;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 4000, 4000))
            .collect();
        let run = |plan: Option<cc_model::FaultPlan>| {
            let mut fs = Pfs::new(
                2,
                cc_model::DiskModel {
                    seek: 1e-3,
                    ost_bandwidth: 1e8,
                },
            );
            if let Some(p) = &plan {
                fs = fs.with_fault_plan(p);
            }
            let data: Vec<u8> = (0..8000).map(|i| (i % 251) as u8).collect();
            fs.create(
                "data",
                StripeLayout::round_robin(512, 2, 0, 2),
                Box::new(MemBackend::from_bytes(data)),
            );
            run_collective(
                n,
                Topology::new(1, 2),
                &requests,
                Hints {
                    cb_buffer_size: 2000,
                    ..Hints::default()
                },
                Arc::new(fs),
            )
        };
        let healthy = run(None);
        let degraded = run(Some(cc_model::FaultPlan::new().slow_ost(0, 10.0)));
        for (r, (h, d)) in healthy.iter().zip(&degraded).enumerate() {
            // Data stays bit-exact under the fault.
            assert_eq!(h.0, d.0, "rank {r} data changed under fault");
            assert_eq!(d.0, expected_bytes(&requests[r]), "rank {r} data");
        }
        // The degraded run is measurably slower, and the slowdown is
        // attributed to queueing, not to a changed ideal service time.
        let end = |rs: &[(Vec<u8>, TwoPhaseReport)]| {
            rs.iter().map(|(_, r)| r.end).max().unwrap()
        };
        assert!(
            end(&degraded) > end(&healthy).scale(2.0),
            "10x slow OST must visibly stretch the collective: healthy {} degraded {}",
            end(&healthy),
            end(&degraded)
        );
        let queue = |rs: &[(Vec<u8>, TwoPhaseReport)]| -> SimTime {
            rs.iter().map(|(_, r)| r.queue_total()).sum()
        };
        assert!(
            queue(&degraded) > queue(&healthy),
            "degradation must surface as queueing time"
        );
    }

    #[test]
    fn straggler_rank_is_detected_from_reports() {
        let n = 4;
        let fs = make_fs(2, 4000, 256, 2);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 1000, 1000))
            .collect();
        let mut model = ClusterModel::test_tiny(n);
        model.topology = Topology::new(1, 4);
        model = model.with_fault(cc_model::FaultPlan::new().straggle_rank(2, 6.0));
        let world = World::new(n, model);
        let fs = &fs;
        let requests = &requests;
        let reports: Vec<TwoPhaseReport> = world
            .run(move |comm| {
                // One second of pre-collective compute; the straggler's is
                // scaled by the fault plan, so it enters late.
                comm.advance(SimTime::from_secs(1.0));
                let file = fs.open("data").expect("file exists");
                collective_read(comm, fs, &file, &requests[comm.rank()], &Hints::default()).1
            })
            .into_iter()
            .collect();
        assert_eq!(TwoPhaseReport::stragglers(&reports, 2.0), vec![2]);
        // Without a fault plan nobody straggles.
        let clean = World::new(n, {
            let mut m = ClusterModel::test_tiny(n);
            m.topology = Topology::new(1, 4);
            m
        });
        let reports: Vec<TwoPhaseReport> = clean
            .run(move |comm| {
                comm.advance(SimTime::from_secs(1.0));
                let file = fs.open("data").expect("file exists");
                collective_read(comm, fs, &file, &requests[comm.rank()], &Hints::default()).1
            })
            .into_iter()
            .collect();
        assert!(TwoPhaseReport::stragglers(&reports, 2.0).is_empty());
    }

    #[test]
    fn hierarchical_shuffle_matches_flat_bitwise() {
        use cc_model::CollectiveMode;
        // 3 nodes x 4 cores, finely interleaved requests: every chunk has
        // destinations on every node, so the hierarchical path coalesces
        // aggressively. The returned buffers must be byte-identical to the
        // flat path's, and the interconnect must carry far fewer messages.
        let n = 12;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..20)
                        .map(|k| Extent {
                            offset: r * 10 + k * 10 * n as u64,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let run_mode = |mode: CollectiveMode| {
            let fs = make_fs(2, 2400, 256, 2);
            let mut model = ClusterModel::test_tiny(n).with_collectives(mode);
            model.topology = Topology::new(3, 4);
            let world = World::new(n, model);
            let fs = &fs;
            let requests = &requests;
            world.run(move |comm| {
                let file = fs.open("data").expect("file exists");
                let (data, _) = collective_read(
                    comm,
                    fs,
                    &file,
                    &requests[comm.rank()],
                    &Hints {
                        cb_buffer_size: 512,
                        ..Hints::default()
                    },
                );
                (data, comm.stats())
            })
        };
        let flat = run_mode(CollectiveMode::Flat);
        let hier = run_mode(CollectiveMode::Hierarchical);
        for (r, (f, h)) in flat.iter().zip(&hier).enumerate() {
            assert_eq!(f.0, h.0, "rank {r} data differs between modes");
            assert_eq!(h.0, expected_bytes(&requests[r]), "rank {r} data");
        }
        let inter = |rs: &[(Vec<u8>, cc_mpi::CommStats)]| -> usize {
            rs.iter().map(|(_, s)| s.msgs_inter).sum()
        };
        assert!(
            inter(&hier) * 2 <= inter(&flat),
            "hierarchical shuffle must cut inter-node messages: flat {} hier {}",
            inter(&flat),
            inter(&hier)
        );
    }

    #[test]
    fn repeated_collectives_in_one_run() {
        let n = 3;
        let fs = make_fs(2, 3000, 256, 2);
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 1000, 1000))
            .collect();
        let mut model = ClusterModel::test_tiny(3);
        model.topology = Topology::new(1, 3);
        let world = World::new(n, model);
        let fs = &fs;
        let requests = &requests;
        let results = world.run(move |comm| {
            let file = fs.open("data").expect("file exists");
            let h = Hints::default();
            let (d1, r1) = collective_read(comm, fs, &file, &requests[comm.rank()], &h);
            let (d2, r2) = collective_read(comm, fs, &file, &requests[comm.rank()], &h);
            assert_eq!(d1, d2);
            // Virtual time strictly advances between collectives.
            assert!(r2.end > r1.end);
            d1
        });
        for (r, data) in results.iter().enumerate() {
            assert_eq!(data, &expected_bytes(&requests[r]));
        }
    }
}
