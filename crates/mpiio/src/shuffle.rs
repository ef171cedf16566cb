//! The shuffle's send and receive legs, shared by the read and write
//! engines.
//!
//! Every shuffle message — a direct send to a requester or an aggregator,
//! a coalesced node frame, a leader's relay or a member's up-message — is
//! posted through [`ShuffleLane::post`] and received through
//! [`recv_shuffle`], so the cost model and the compression rule live in
//! one place: a message is compressed exactly when the hints ask for it
//! and it crosses a node boundary. Both ends apply that rule to the same
//! `(sender, receiver)` pair, so frames need no flag to say whether they
//! were encoded.

use cc_model::{Lane, SimTime};
use cc_mpi::comm::TagValue;
use cc_mpi::{Comm, NodeView};

use crate::extent::Piece;
use crate::hints::Compression;
use crate::schedule::PlanSchedule;

/// A sender's shuffle lane — the serially-reused resource (the paper's
/// "shuffle thread") that packs, encodes and posts shuffle messages — and
/// the codec the hints select for it.
pub(crate) struct ShuffleLane<'a> {
    /// The lane; also held directly for work that posts nothing.
    pub(crate) lane: Lane,
    compression: &'a Compression,
}

impl<'a> ShuffleLane<'a> {
    /// A lane free from `start`, compressing as `compression` says.
    pub(crate) fn new(start: SimTime, compression: &'a Compression) -> Self {
        Self {
            lane: Lane::free_from(start),
            compression,
        }
    }

    /// Posts `payload` from this rank to `dst`, holding the lane from
    /// `ready` for the memcpy of the logical payload, the codec when the
    /// message is compressed, the per-piece scatter cost of `pieces`
    /// non-contiguous runs (like a derived-datatype pack), and — unless
    /// `dst` is this rank, whose message rides the self-send short circuit
    /// — the NIC serialization of the wire bytes and the per-message
    /// posting overhead. Per-piece cost is what makes the shuffle of a
    /// finely-fragmented request approach the read cost (Fig. 1). Returns
    /// the departure time and the logical payload length.
    pub(crate) fn post(
        &mut self,
        comm: &mut Comm,
        ready: SimTime,
        dst: usize,
        tag: TagValue,
        payload: Vec<u8>,
        pieces: usize,
    ) -> (SimTime, usize) {
        let same_node = comm.model().topology.same_node(comm.rank(), dst);
        let logical_len = payload.len();
        let compressed = self.compression.is_on() && !same_node;
        let wire = if compressed {
            let mut wire = comm.take_buf();
            cc_compress::encode_into(self.compression, &payload, &mut wire);
            comm.recycle_buf(payload);
            wire
        } else {
            payload
        };
        let (cpu, net) = (&comm.model().cpu, &comm.model().net);
        let codec = if compressed {
            cpu.compress_time(logical_len)
        } else {
            SimTime::ZERO
        };
        let mut cost =
            cpu.memcpy_time(logical_len) + codec + net.scatter_cost().scale(pieces as f64);
        if dst != comm.rank() {
            cost = cost + net.wire_time(wire.len(), same_node) + net.msg_cost(same_node);
        }
        let depart = self.lane.acquire(ready, cost);
        comm.post_framed_bytes_at(dst, tag, wire, depart, logical_len);
        (depart, logical_len)
    }
}

/// Receives one shuffle message from `src`, decoding it when the sender
/// compressed it (see [`ShuffleLane::post`]). Returns the logical payload,
/// its arrival time and the CPU time the decode took (zero when raw).
pub(crate) fn recv_shuffle(
    comm: &mut Comm,
    src: usize,
    tag: TagValue,
    compression: &Compression,
) -> (Vec<u8>, SimTime, SimTime) {
    let (wire, info) = comm.recv_bytes_no_clock(src, tag);
    if !compression.is_on() || comm.model().topology.same_node(src, comm.rank()) {
        return (wire, info.arrival, SimTime::ZERO);
    }
    let mut logical = comm.take_buf();
    let n = cc_compress::decode_into(&wire, &mut logical);
    comm.recycle_buf(wire);
    (logical, info.arrival, comm.model().cpu.decompress_time(n))
}

/// Appends the bytes of `pieces` to `out`, each read from `src` at
/// `at(piece)`: the sender's pack.
pub(crate) fn pack(out: &mut Vec<u8>, src: &[u8], pieces: &[Piece], at: impl Fn(&Piece) -> usize) {
    for p in pieces {
        let lo = at(p);
        out.extend_from_slice(&src[lo..lo + p.extent.len as usize]);
    }
}

/// Copies the bytes of `pieces`, stored back to back in `payload`, into
/// `out` at `at(piece)`: the receiver's unpack. Returns the bytes consumed.
pub(crate) fn unpack(out: &mut [u8], payload: &[u8], pieces: &[Piece], at: impl Fn(&Piece) -> usize) -> usize {
    let mut cursor = 0usize;
    for p in pieces {
        let (lo, len) = (at(p), p.extent.len as usize);
        out[lo..lo + len].copy_from_slice(&payload[cursor..cursor + len]);
        cursor += len;
    }
    cursor
}

/// The chunks a node leader relays (read) or coalesces (write): every
/// `(aggregator, aggregator rank, iteration)` owned by an aggregator on
/// another node that holds pieces for some rank of `view`'s node, in global
/// (aggregator, iteration) order — the order in which aggregators post and
/// members drain, so FIFO matching pairs the messages up.
pub(crate) fn remote_chunks<'a>(
    schedule: &'a PlanSchedule,
    view: &'a NodeView,
) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
    (0..schedule.plan().aggregators.len())
        .map(|a| (a, schedule.aggregator_rank(a)))
        .filter(|&(_, rank)| view.node_of(rank) != view.node)
        .flat_map(|(a, rank)| {
            schedule
                .active_iterations(a)
                .iter()
                .map(move |&iter| (a, rank, iter))
        })
        .filter(|&(a, _, iter)| {
            schedule
                .dests_with_pieces_in(a, iter, view.node_lo, view.node_hi)
                .next()
                .is_some()
        })
}
