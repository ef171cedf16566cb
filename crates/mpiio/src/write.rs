//! The two-phase collective write engine.
//!
//! The mirror image of [`twophase`](crate::twophase): ranks scatter the
//! pieces of their write buffers to the aggregators owning the target file
//! domains (phase 1, the shuffle), and each aggregator assembles the
//! pieces of each collective-buffer chunk and issues large writes
//! (phase 2, the I/O). Only requested byte ranges are written — holes in a
//! chunk are skipped rather than read-modify-written, which is sufficient
//! because requests never overlap within one offset list and overlapping
//! writes *across* ranks are application bugs MPI-IO leaves undefined.

use cc_model::{Lane, SimTime};
use cc_mpi::comm::{TagValue, SEQ_MASK};
use cc_mpi::{Comm, NodeView};
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::exchange::exchange_and_plan;
use crate::extent::{Extent, OffsetList, Piece};
use crate::hints::Hints;
use crate::pipeline::Staging;
use crate::schedule::{PlanSchedule, PlanSource};
use crate::shuffle::{pack, recv_shuffle, remote_chunks, unpack, ShuffleLane};

/// Tag base for write-shuffle messages; each collective stamps its
/// sequence number into the low bits (see `Comm::next_engine_tag`).
pub(crate) const TAG_WRITE_SHUFFLE: TagValue = 0x6000_0000;

/// Tag base for member -> node-leader up-messages: when hierarchical
/// paths are active, pieces bound for a *remote-node* aggregator are
/// handed to the local node leader instead of crossing the interconnect
/// individually.
pub(crate) const TAG_WRITE_UP: TagValue = 0x3000_0000;

/// Tag base for coalesced write-shuffle frames: the node leader
/// concatenates its members' up-messages for one chunk into a single
/// frame and sends it to the owning aggregator — one inter-node message
/// per (chunk, source node) pair.
pub(crate) const TAG_WRITE_FRAME: TagValue = 0x7000_0000;

/// What one rank observed during a collective write.
#[derive(Debug, Clone, Default)]
pub struct WriteReport {
    /// Bytes this rank wrote to the file system (aggregator role).
    pub bytes_written: u64,
    /// Bytes this rank sent during the shuffle.
    pub bytes_shuffled: u64,
    /// File-system write calls issued by this rank.
    pub writes_issued: u64,
    /// Virtual time entering the collective.
    pub start: SimTime,
    /// Virtual time when this rank's role completed.
    pub end: SimTime,
    /// Activity segments for CPU profiling.
    pub segments: Vec<Segment>,
}

impl WriteReport {
    /// Elapsed virtual time.
    pub fn elapsed(&self) -> SimTime {
        self.end.saturating_since(self.start)
    }
}

/// Collectively writes `data` (the bytes of `my_request`, in request-buffer
/// order) to `file`. Must be called by all ranks.
///
/// # Panics
/// Panics if `data.len()` does not match the request size.
pub fn collective_write(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
    data: &[u8],
    hints: &Hints,
) -> WriteReport {
    collective_write_planned(comm, pfs, file, my_request, data, hints, &mut PlanSource::Fresh)
}

/// [`collective_write`] drawing its compiled schedule from an explicit
/// [`PlanSource`] (see
/// [`collective_read_planned`](crate::twophase::collective_read_planned)
/// for the symmetry requirement).
pub fn collective_write_planned(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
    data: &[u8],
    hints: &Hints,
    plans: &mut PlanSource<'_>,
) -> WriteReport {
    assert_eq!(
        data.len() as u64,
        my_request.total_bytes(),
        "rank {}: write buffer does not match the request size",
        comm.rank(),
    );
    let hints = &hints.clone().striped_as(file.layout());
    let schedule = exchange_and_plan(comm, my_request, hints, plans);
    // All ranks passed through the request exchange, so the counter is
    // symmetric and this collective's shuffle tag is unique to it.
    let tag = comm.next_engine_tag(TAG_WRITE_SHUFFLE);
    let mut report = WriteReport {
        start: comm.clock(),
        ..WriteReport::default()
    };

    // --- Sender role: scatter my pieces to the owning aggregators. -----
    // With hierarchical paths active, pieces bound for a remote-node
    // aggregator go to the local node leader (one cheap intra-node hop)
    // instead of crossing the interconnect one message per rank; the
    // leader coalesces them below.
    let hier = comm.hier_view();
    let up_tag = TAG_WRITE_UP | (tag & SEQ_MASK);
    let mut sender = ShuffleLane::new(comm.clock(), &hints.compression);
    for (a, _, pieces) in schedule.sources_with_pieces(comm.rank()) {
        let agg_rank = schedule.aggregator_rank(a);
        if agg_rank == comm.rank() {
            // Own pieces are handed over locally in the aggregator loop.
            continue;
        }
        let mut payload = comm.take_buf();
        payload.reserve(pieces.iter().map(|p| p.extent.len as usize).sum());
        pack(&mut payload, data, pieces, |p| p.buf_offset as usize);
        // The leader's own up-message rides the self-send short circuit;
        // direct sends that cross the interconnect may travel compressed.
        let (dst, dst_tag) = match hier.as_ref() {
            Some(view) if view.node_of(agg_rank) != view.node => (view.leader, up_tag),
            _ => (agg_rank, tag),
        };
        let ready = comm.clock();
        let (_, logical) = sender.post(comm, ready, dst, dst_tag, payload, pieces.len());
        report.bytes_shuffled += logical as u64;
    }
    let sends_done = sender.lane.free_at().max(comm.clock());
    if sends_done > report.start {
        report
            .segments
            .push(Segment::new(report.start, sends_done, Activity::Sys));
    }

    // --- Leader role: coalesce members' up-messages into frames. --------
    let mut done = sends_done;
    if let Some(view) = hier.as_ref().filter(|v| v.is_leader(comm.rank())) {
        done = done.max(coalesce_write_frames(
            comm,
            &schedule,
            view,
            tag,
            hints,
            &mut report,
        ));
    }

    // --- Aggregator role: assemble chunks and write. --------------------
    if let Some(agg_idx) = schedule.aggregator_index(comm.rank()) {
        done = done.max(run_write_aggregator(
            comm,
            pfs,
            file,
            &schedule,
            agg_idx,
            tag,
            hints,
            hier.as_ref(),
            data,
            my_request,
            &mut report,
        ));
    }
    comm.advance_to(done);
    report.end = comm.clock();
    report
}

/// The node leader's coalescing loop, the mirror of the read engine's
/// relay: for every chunk owned by a *remote-node* aggregator that this
/// node contributes to, receives each member's up-message (its own rides
/// the self-send short circuit), concatenates them in ascending member
/// order into one header-less frame, and sends it to the aggregator —
/// paying the inter-node posting overhead once per (chunk, node) pair.
/// Returns the time the last frame departed.
fn coalesce_write_frames(
    comm: &mut Comm,
    schedule: &PlanSchedule,
    view: &NodeView,
    tag: TagValue,
    hints: &Hints,
    report: &mut WriteReport,
) -> SimTime {
    let up_tag = TAG_WRITE_UP | (tag & SEQ_MASK);
    let frame_tag = TAG_WRITE_FRAME | (tag & SEQ_MASK);
    let start = comm.clock();
    let mut framer = ShuffleLane::new(start, &hints.compression);
    let mut last = start;
    for (a, agg_rank, iter) in remote_chunks(schedule, view) {
        let sources = || schedule.dests_with_pieces_in(a, iter, view.node_lo, view.node_hi);
        // Pre-size the frame from the schedule's piece tables so
        // coalescing never reallocates mid-concatenation.
        let frame_bytes: usize = sources()
            .flat_map(|(_, ps)| ps)
            .map(|p| p.extent.len as usize)
            .sum();
        let mut frame = comm.take_buf();
        frame.reserve(frame_bytes);
        let mut arrival = start;
        for (src, pieces) in sources() {
            let len: usize = pieces.iter().map(|p| p.extent.len as usize).sum();
            // Up-messages stay on the node, so they always arrive raw.
            let (payload, at, _) = recv_shuffle(comm, src, up_tag, &hints.compression);
            assert_eq!(
                payload.len(),
                len,
                "rank {}: write up-message length mismatch from rank {src} \
                 (aggregator {a}, iteration {iter}, tag {up_tag:#x})",
                comm.rank(),
            );
            arrival = arrival.max(at);
            frame.extend_from_slice(&payload);
            comm.recycle_buf(payload);
        }
        // Concatenating contiguous payloads is a plain copy — the
        // per-piece scatter cost was already paid by the members. The
        // frame always crosses the interconnect, so it is compressed
        // whenever the hints ask for it.
        let (depart, logical) = framer.post(comm, arrival, agg_rank, frame_tag, frame, 0);
        report.bytes_shuffled += logical as u64;
        last = last.max(depart);
    }
    if last > start {
        report
            .segments
            .push(Segment::new(start, last, Activity::Sys));
    }
    last
}

/// Assembles and writes every chunk of one aggregator's file domain;
/// returns the time the last write completed.
#[allow(clippy::too_many_arguments)]
fn run_write_aggregator(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    schedule: &PlanSchedule,
    agg_idx: usize,
    tag: TagValue,
    hints: &Hints,
    hier: Option<&NodeView>,
    my_data: &[u8],
    my_request: &OffsetList,
    report: &mut WriteReport,
) -> SimTime {
    let cpu = comm.model().cpu.clone();
    let mut recv_done = comm.clock();
    let mut io_lane = Lane::free_from(comm.clock());
    // The read side's staging discipline, mirrored: iteration `i` is
    // assembled in its slot once the write that drained the slot's
    // previous occupant (iteration `i - depth`) has landed.
    let iters = schedule.active_iterations(agg_idx);
    let mut staging = Staging::new(hints.pipeline_depth, iters.len());
    // Assembly slots reused (re-zeroed) round-robin across iterations.
    let mut slots: Vec<Vec<u8>> = vec![Vec::new(); staging.slots()];
    let mut last = comm.clock();

    let frame_tag = TAG_WRITE_FRAME | (tag & SEQ_MASK);
    for (pos, &iter) in iters.iter().enumerate() {
        let (clo, chi) = schedule.chunk(agg_idx, iter);
        let chunk = &mut slots[staging.slot(pos)];
        chunk.clear();
        chunk.resize((chi - clo) as usize, 0);
        let npieces = schedule
            .dests_with_pieces(agg_idx, iter)
            .map(|(_, ps)| ps.len())
            .sum();
        let mut extents: Vec<Extent> = Vec::with_capacity(npieces);
        let mut arrival = recv_done.max(staging.floor(pos));
        let mut sources = schedule.dests_with_pieces(agg_idx, iter).peekable();
        while let Some((src, pieces)) = sources.next() {
            // A remote node's contributors arrive as one frame from its
            // leader, their sections back to back in ascending rank order.
            let frame = hier
                .filter(|v| v.node_of(src) != v.node)
                .map(|v| (v, v.node_of(src)));
            let (from, from_tag) = match frame {
                Some((view, node)) => (view.leader_of_node(node), frame_tag),
                None => (src, tag),
            };
            let payload = if from == comm.rank() {
                let mut own = comm.take_buf();
                own.reserve(pieces.iter().map(|p| p.extent.len as usize).sum());
                pack(&mut own, my_data, pieces, |p| p.buf_offset as usize);
                // Offsets of my own pieces come from my own request.
                debug_assert_eq!(
                    my_request.bytes_in(clo, chi),
                    own.len() as u64,
                    "own piece extraction mismatch"
                );
                own
            } else {
                let (bytes, at, decode) = recv_shuffle(comm, from, from_tag, &hints.compression);
                arrival = arrival.max(at + decode);
                bytes
            };
            let at = |p: &Piece| (p.extent.offset - clo) as usize;
            let mut used = unpack(chunk, &payload, pieces, at);
            extents.extend(pieces.iter().map(|p| p.extent));
            if let Some((view, node)) = frame {
                while let Some((_, more)) = sources.next_if(|&(s, _)| view.node_of(s) == node) {
                    used += unpack(chunk, &payload[used..], more, at);
                    extents.extend(more.iter().map(|p| p.extent));
                }
            }
            assert_eq!(
                used,
                payload.len(),
                "rank {}: write payload length mismatch from rank {from} \
                 (aggregator {agg_idx}, iteration {iter}, tag {from_tag:#x})",
                comm.rank(),
            );
            comm.recycle_buf(payload);
        }
        recv_done = arrival;
        // Merge the received extents and write the whole chunk as one
        // vectorized call: the file system groups the runs per OST, merges
        // object-contiguous pieces, and books each OST once — one seek per
        // merged run instead of one write call per file-contiguous run.
        let merged = OffsetList::new(extents);
        let assemble = cpu.memcpy_time(merged.total_bytes() as usize);
        let ready = arrival.max(io_lane.free_at()) + assemble;
        let mut write_done = ready;
        if merged.total_bytes() > 0 {
            let ranges: Vec<(u64, u64)> =
                merged.extents().iter().map(|e| (e.offset, e.len)).collect();
            write_done = if hints.compression.is_on() {
                // The write-back travels to the file system compressed:
                // the stored bytes are the codec's reconstruction
                // (bit-exact under `Lossless`, within the error bound
                // otherwise) and the disk charge scales with the
                // compressed size while offsets stay logical.
                let mut logical = comm.take_buf();
                logical.reserve(merged.total_bytes() as usize);
                for &(off, len) in &ranges {
                    let lo = (off - clo) as usize;
                    logical.extend_from_slice(&chunk[lo..lo + len as usize]);
                }
                let mut wire = comm.take_buf();
                cc_compress::encode_into(&hints.compression, &logical, &mut wire);
                let mut recon = comm.take_buf();
                let n = cc_compress::decode_into(&wire, &mut recon);
                debug_assert_eq!(n, logical.len());
                let mut cursor = 0usize;
                for &(off, len) in &ranges {
                    let lo = (off - clo) as usize;
                    chunk[lo..lo + len as usize]
                        .copy_from_slice(&recon[cursor..cursor + len as usize]);
                    cursor += len as usize;
                }
                let codec_ready = ready + cpu.compress_time(logical.len());
                let wire_len = wire.len() as u64;
                comm.recycle_buf(logical);
                comm.recycle_buf(recon);
                comm.recycle_buf(wire);
                pfs.write_multi_scaled(file, clo, chunk, &ranges, codec_ready, wire_len)
            } else {
                pfs.write_multi(file, clo, chunk, &ranges, ready)
            };
            report.bytes_written += merged.total_bytes();
            report.writes_issued += 1;
        }
        io_lane.advance_to(write_done);
        // The slot is free for iteration pos + depth once its write lands.
        staging.drain(pos, write_done);
        report
            .segments
            .push(Segment::new(ready, write_done, Activity::Wait));
        last = last.max(write_done);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_model::{ClusterModel, Topology};
    use cc_mpi::World;
    use cc_pfs::{MemBackend, StripeLayout};
    use std::sync::Arc;

    fn empty_fs(size: usize) -> Arc<Pfs> {
        let fs = Pfs::new(
            2,
            cc_model::DiskModel {
                seek: 1e-3,
                ost_bandwidth: 1e8,
            },
        );
        fs.create(
            "out",
            StripeLayout::round_robin(256, 2, 0, 2),
            Box::new(MemBackend::zeroed(size)),
        );
        Arc::new(fs)
    }

    fn run_write(
        nprocs: usize,
        requests: &[OffsetList],
        fs: Arc<Pfs>,
        hints: Hints,
    ) -> Vec<WriteReport> {
        let mut model = ClusterModel::test_tiny(nprocs);
        model.topology = Topology::new(1, nprocs);
        let world = World::new(nprocs, model);
        let fs = &fs;
        let hints = &hints;
        world.run(move |comm| {
            let file = fs.open("out").expect("exists");
            let req = &requests[comm.rank()];
            // Rank r writes bytes valued (file_offset % 251), so the
            // expected file contents are position-determined.
            let mut data = Vec::new();
            for e in req.extents() {
                data.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
            }
            collective_write(comm, fs, &file, req, &data, hints)
        })
    }

    fn check_file(fs: &Pfs, requests: &[OffsetList], size: u64) {
        let file = fs.open("out").expect("exists");
        let (bytes, _) = fs.read_at(&file, 0, size, SimTime::ZERO);
        let mut expect = vec![0u8; size as usize];
        for req in requests {
            for e in req.extents() {
                for i in e.offset..e.end() {
                    expect[i as usize] = (i % 251) as u8;
                }
            }
        }
        assert_eq!(bytes, expect);
    }

    #[test]
    fn contiguous_blocks_roundtrip() {
        let n = 4;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 500, 500))
            .collect();
        let fs = empty_fs(2000);
        let reports = run_write(n, &requests, Arc::clone(&fs), Hints::default());
        check_file(&fs, &requests, 2000);
        let written: u64 = reports.iter().map(|r| r.bytes_written).sum();
        assert_eq!(written, 2000);
    }

    #[test]
    fn interleaved_writes_with_holes() {
        // Rank r writes 10-byte pieces at r*10 + k*60: holes at 40..60 of
        // each 60-byte group must stay zero.
        let n = 4;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..8)
                        .map(|k| Extent {
                            offset: r * 10 + k * 60,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let fs = empty_fs(600);
        run_write(
            n,
            &requests,
            Arc::clone(&fs),
            Hints {
                cb_buffer_size: 128,
                ..Hints::default()
            },
        );
        check_file(&fs, &requests, 600);
    }

    #[test]
    fn writes_coalesce_per_chunk() {
        // Adjacent pieces from different ranks merge into few writes.
        let n = 4;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| OffsetList::contiguous(r * 100, 100))
            .collect();
        let fs = empty_fs(400);
        let reports = run_write(
            n,
            &requests,
            Arc::clone(&fs),
            Hints {
                cb_buffer_size: 1 << 20,
                aggregators_per_node: 1,
                ..Hints::default()
            },
        );
        // One aggregator, one chunk, fully contiguous: exactly one write.
        let writes: u64 = reports.iter().map(|r| r.writes_issued).sum();
        assert_eq!(writes, 1);
    }

    #[test]
    fn empty_writers_are_fine() {
        let n = 3;
        let mut requests = vec![OffsetList::empty(); n];
        requests[1] = OffsetList::contiguous(64, 64);
        let fs = empty_fs(256);
        run_write(n, &requests, Arc::clone(&fs), Hints::default());
        check_file(&fs, &requests, 256);
    }

    #[test]
    fn hierarchical_write_matches_flat_bitwise() {
        use cc_model::CollectiveMode;
        // 2 nodes x 3 cores, interleaved pieces: every chunk receives
        // contributions from both nodes, so up-messages and coalesced
        // frames carry the whole shuffle. File contents must be
        // byte-identical to the flat path's.
        let n = 6;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..15)
                        .map(|k| Extent {
                            offset: r * 10 + k * 10 * n as u64,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let run_mode = |mode: CollectiveMode| {
            let fs = empty_fs(900);
            let mut model = ClusterModel::test_tiny(n).with_collectives(mode);
            model.topology = Topology::new(2, 3);
            let world = World::new(n, model);
            let stats = {
                let fs = &fs;
                let requests = &requests;
                world.run(move |comm| {
                    let file = fs.open("out").expect("exists");
                    let req = &requests[comm.rank()];
                    let mut data = Vec::new();
                    for e in req.extents() {
                        data.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
                    }
                    collective_write(
                        comm,
                        fs,
                        &file,
                        req,
                        &data,
                        &Hints {
                            cb_buffer_size: 256,
                            ..Hints::default()
                        },
                    );
                    comm.stats()
                })
            };
            let file = fs.open("out").expect("exists");
            let (bytes, _) = fs.read_at(&file, 0, 900, SimTime::ZERO);
            (bytes, stats)
        };
        let (flat_file, flat_stats) = run_mode(CollectiveMode::Flat);
        let (hier_file, hier_stats) = run_mode(CollectiveMode::Hierarchical);
        assert_eq!(flat_file, hier_file, "file contents differ between modes");
        let mut expect = vec![0u8; 900];
        for req in &requests {
            for e in req.extents() {
                for i in e.offset..e.end() {
                    expect[i as usize] = (i % 251) as u8;
                }
            }
        }
        assert_eq!(hier_file, expect, "written contents are wrong");
        let inter = |ss: &[cc_mpi::CommStats]| -> usize { ss.iter().map(|s| s.msgs_inter).sum() };
        assert!(
            inter(&hier_stats) * 2 <= inter(&flat_stats),
            "hierarchical write shuffle must cut inter-node messages: flat {} hier {}",
            inter(&flat_stats),
            inter(&hier_stats)
        );
    }

    #[test]
    fn write_then_collective_read_roundtrip() {
        let n = 2;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..5)
                        .map(|k| Extent {
                            offset: r * 20 + k * 40,
                            len: 20,
                        })
                        .collect(),
                )
            })
            .collect();
        let fs = empty_fs(220);
        let mut model = ClusterModel::test_tiny(n);
        model.topology = Topology::new(1, n);
        let world = World::new(n, model);
        let fs = &fs;
        let requests = &requests;
        let ok = world.run(move |comm| {
            let file = fs.open("out").expect("exists");
            let req = &requests[comm.rank()];
            let mut data = Vec::new();
            for e in req.extents() {
                data.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
            }
            collective_write(comm, fs, &file, req, &data, &Hints::default());
            comm.barrier();
            let (back, _) =
                crate::twophase::collective_read(comm, fs, &file, req, &Hints::default());
            back == data
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn lossless_compressed_write_is_bit_identical_to_off() {
        use crate::hints::Compression;
        use cc_model::CollectiveMode;
        // Interleaved pieces across a 2x3 topology so both the direct
        // inter-node sends (flat) and the coalesced leader frames (hier)
        // travel compressed. File contents must match the uncompressed
        // run byte for byte in both modes.
        let n = 6;
        let requests: Vec<OffsetList> = (0..n as u64)
            .map(|r| {
                OffsetList::new(
                    (0..15)
                        .map(|k| Extent {
                            offset: r * 10 + k * 10 * n as u64,
                            len: 10,
                        })
                        .collect(),
                )
            })
            .collect();
        let run_one = |mode: CollectiveMode, compression: Compression| {
            let fs = empty_fs(900);
            let mut model = ClusterModel::test_tiny(n).with_collectives(mode);
            model.topology = Topology::new(2, 3);
            let world = World::new(n, model);
            {
                let fs = &fs;
                let requests = &requests;
                world.run(move |comm| {
                    let file = fs.open("out").expect("exists");
                    let req = &requests[comm.rank()];
                    let mut data = Vec::new();
                    for e in req.extents() {
                        data.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
                    }
                    let hints = Hints {
                        cb_buffer_size: 256,
                        compression,
                        ..Hints::default()
                    };
                    collective_write(comm, fs, &file, req, &data, &hints);
                });
            }
            let file = fs.open("out").expect("exists");
            let (bytes, _) = fs.read_at(&file, 0, 900, SimTime::ZERO);
            bytes
        };
        for mode in [CollectiveMode::Flat, CollectiveMode::Hierarchical] {
            let off = run_one(mode, Compression::Off);
            let lossless = run_one(mode, Compression::Lossless);
            assert_eq!(off, lossless, "lossless write changed bytes ({mode:?})");
        }
    }

    #[test]
    fn error_bounded_write_respects_bound_and_cuts_wire_bytes() {
        use crate::hints::{Compression, ErrorBound};
        use cc_model::CollectiveMode;
        // A smooth f64 field written across 2 nodes with an absolute
        // error bound: the shuffle leg and the write-back leg each stay
        // within the bound (errors compound additively across the two
        // lossy hops), and the inter-node wire bytes shrink well below
        // the logical bytes.
        let n = 6;
        let piece = 1024usize; // 128 f64 values per piece
        let pieces_per_rank = 16usize;
        let per_rank = (piece * pieces_per_rank) as u64;
        let abs = 1e-3;
        let field = |i: usize| 300.0 + 40.0 * (i as f64 * 1e-3).sin();
        // Rank r owns 1 KiB pieces at stride n KiB — every chunk draws
        // from both nodes, so the shuffle genuinely crosses the
        // interconnect, while the offset-list metadata stays small next
        // to the data.
        let requests: Vec<OffsetList> = (0..n)
            .map(|r| {
                OffsetList::new(
                    (0..pieces_per_rank)
                        .map(|k| Extent {
                            offset: ((r + k * n) * piece) as u64,
                            len: piece as u64,
                        })
                        .collect(),
                )
            })
            .collect();
        let fs = empty_fs((n as u64 * per_rank) as usize);
        let mut model = ClusterModel::test_tiny(n).with_collectives(CollectiveMode::Hierarchical);
        model.topology = Topology::new(2, 3);
        let world = World::new(n, model);
        let stats = {
            let fs = &fs;
            let requests = &requests;
            world.run(move |comm| {
                let file = fs.open("out").expect("exists");
                let req = &requests[comm.rank()];
                let mut data = Vec::new();
                for e in req.extents() {
                    for i in (e.offset / 8)..(e.end() / 8) {
                        data.extend_from_slice(&field(i as usize).to_le_bytes());
                    }
                }
                let hints = Hints {
                    cb_buffer_size: 4096,
                    compression: Compression::ErrorBounded(ErrorBound::absolute(abs)),
                    ..Hints::default()
                };
                collective_write(comm, fs, &file, req, &data, &hints);
                comm.stats()
            })
        };
        let file = fs.open("out").expect("exists");
        let (bytes, _) = fs.read_at(&file, 0, n as u64 * per_rank, SimTime::ZERO);
        let mut max_err = 0.0f64;
        for (i, w) in bytes.chunks_exact(8).enumerate() {
            let got = f64::from_le_bytes(w.try_into().unwrap());
            max_err = max_err.max((got - field(i)).abs());
        }
        assert!(
            max_err <= 2.0 * abs + 1e-12,
            "stored field error {max_err:e} exceeds two-hop bound {:e}",
            2.0 * abs
        );
        let wire: usize = stats.iter().map(|s| s.bytes_inter).sum();
        let logical: usize = stats.iter().map(|s| s.logical_inter).sum();
        assert!(
            logical >= 3 * wire,
            "expected >=3x inter-node wire reduction: logical {logical} wire {wire}"
        );
    }

    #[test]
    #[should_panic]
    fn wrong_buffer_size_panics() {
        let fs = empty_fs(128);
        let mut model = ClusterModel::test_tiny(1);
        model.topology = Topology::new(1, 1);
        let world = World::new(1, model);
        let fs = &fs;
        world.run(move |comm| {
            let file = fs.open("out").expect("exists");
            let req = OffsetList::contiguous(0, 64);
            collective_write(comm, fs, &file, &req, &[0u8; 10], &Hints::default());
        });
    }
}
