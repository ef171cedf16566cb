//! Point-to-point messaging and per-rank virtual clocks.
//!
//! Sends are eager and buffered (they never block), receives block until a
//! matching envelope arrives. Matching follows MPI semantics: by source and
//! tag, with wildcards, FIFO per (source, tag) pair. Every operation moves
//! real bytes *and* advances the rank's virtual clock: a send charges the
//! sender-side overhead, and a receive completes at
//! `max(local clock, message arrival time)` where the arrival time was
//! computed from the sender's clock plus the modeled transfer time.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cc_model::{ClusterModel, SimTime};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::elem::{decode_vec, encode_slice_into, Elem};
use crate::pool::BufferPool;
use crate::slot::Slots;
use crate::stats::CommStats;

/// Message tag. Values with the top *nibble* set are reserved: bit 31 for
/// the collectives in this crate, bits 28–30 for engine tag bases (the
/// two-phase shuffles and the collective-computing result shuffle), which
/// stamp the low 28 bits with a per-collective sequence number via
/// [`Comm::next_engine_tag`].
pub type TagValue = u32;

/// Wildcard tag: matches any tag.
pub const ANY_TAG: TagValue = TagValue::MAX;

/// Base of the tag space reserved for collective operations.
pub(crate) const COLLECTIVE_TAG_BASE: TagValue = 0x8000_0000;

/// Mask selecting the per-collective sequence bits of a reserved tag.
pub const SEQ_MASK: TagValue = 0x0fff_ffff;

/// Locks a mutex, ignoring poisoning: during an abort, rank threads unwind
/// while holding mailbox locks, and the survivors still need to read the
/// queues (for diagnostics) and unwind cleanly rather than cascade
/// "poisoned" panics.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Message source selector for receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Match only messages from this rank.
    Rank(usize),
    /// Match messages from any rank.
    Any,
}

impl From<usize> for Source {
    fn from(rank: usize) -> Self {
        Source::Rank(rank)
    }
}

/// Metadata of a received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvInfo {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: TagValue,
    /// Virtual time at which the message arrived at this rank.
    pub arrival: SimTime,
}

#[derive(Debug)]
struct Envelope {
    src: usize,
    tag: TagValue,
    arrival: SimTime,
    payload: Vec<u8>,
}

impl Envelope {
    fn matches(&self, src: Source, tag: TagValue) -> bool {
        let src_ok = match src {
            Source::Rank(r) => self.src == r,
            Source::Any => true,
        };
        src_ok && (tag == ANY_TAG || self.tag == tag)
    }
}

#[derive(Default)]
struct Mailbox {
    queue: Mutex<VecDeque<Envelope>>,
    arrived: Condvar,
}

/// Last-published per-rank progress, readable by the supervisor while the
/// rank thread is blocked or gone. Updated with cheap relaxed stores on the
/// rank's own hot path.
#[derive(Default)]
struct RankState {
    /// This rank's virtual clock, as `f64` bits.
    clock_bits: AtomicU64,
    /// The rank's collective sequence counter (collectives entered so far).
    seq: AtomicU32,
}

/// Why a run is being torn down: the first rank to panic, with its message.
#[derive(Debug, Clone)]
pub(crate) struct AbortInfo {
    /// The originating rank.
    pub(crate) rank: usize,
    /// The originating panic's message.
    pub(crate) message: String,
}

/// The panic payload used to unwind ranks that did nothing wrong when the
/// world aborts. `World::run` recognizes it (and the default panic hook is
/// bypassed via `resume_unwind`), so only the *originating* rank's panic is
/// ever reported.
pub(crate) struct WorldAborted;

/// State shared by all ranks of one run.
pub(crate) struct Shared {
    pub(crate) model: ClusterModel,
    mailboxes: Vec<Mailbox>,
    /// Fast-path abort flag; set (with `Release`) after `abort` is filled.
    aborted: AtomicBool,
    /// First panic wins; later panics during teardown are ignored.
    abort: Mutex<Option<AbortInfo>>,
    states: Vec<RankState>,
    /// Global mailbox-activity counter: bumped on every shared-mailbox
    /// post and removal. The recv watchdog re-arms whenever it moves — a
    /// busy world is never a deadlocked one, no matter how long a single
    /// rank has been waiting in *real* time (the simulation runs in
    /// virtual time, so a loaded host or a deeply pipelined engine can
    /// legitimately leave one receive parked for a long real-time while
    /// its peers churn through other ranks' traffic).
    progress: AtomicU64,
    /// Replicated values computed once for all ranks (see `slot.rs`).
    pub(crate) slots: Slots,
}

impl Shared {
    pub(crate) fn new(nprocs: usize, model: ClusterModel) -> Arc<Self> {
        Arc::new(Self {
            model,
            mailboxes: (0..nprocs).map(|_| Mailbox::default()).collect(),
            aborted: AtomicBool::new(false),
            abort: Mutex::new(None),
            states: (0..nprocs).map(|_| RankState::default()).collect(),
            progress: AtomicU64::new(0),
            slots: Slots::default(),
        })
    }

    /// Records one unit of global mailbox activity (a post or a removal).
    /// Relaxed suffices: the counter is a liveness heuristic, not a
    /// synchronization point.
    fn note_progress(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value of the global activity counter.
    fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Whether the run is aborting. Safe to call while holding a mailbox
    /// queue lock (it touches no other lock).
    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// Records `rank`'s panic (first one wins) and wakes every blocked
    /// receiver so the whole world unwinds immediately instead of waiting
    /// out the watchdog.
    pub(crate) fn signal_abort(&self, rank: usize, message: String) {
        {
            let mut slot = lock_unpoisoned(&self.abort);
            if slot.is_none() {
                *slot = Some(AbortInfo { rank, message });
            }
        }
        self.aborted.store(true, Ordering::Release);
        // Lock each queue mutex before notifying: a receiver that checked
        // the flag and is about to wait holds its queue lock, so taking it
        // here guarantees the notify cannot fall between its check and its
        // wait (no lost wakeup).
        for mb in &self.mailboxes {
            let _guard = lock_unpoisoned(&mb.queue);
            mb.arrived.notify_all();
        }
        self.slots.wake_all();
    }

    /// The recorded abort cause, if any.
    pub(crate) fn abort_info(&self) -> Option<AbortInfo> {
        lock_unpoisoned(&self.abort).clone()
    }

    /// Publishes rank-local progress for the diagnostic snapshot.
    fn publish_clock(&self, rank: usize, clock: SimTime) {
        self.states[rank]
            .clock_bits
            .store(clock.secs().to_bits(), Ordering::Relaxed);
    }

    fn publish_seq(&self, rank: usize, seq: u32) {
        self.states[rank].seq.store(seq, Ordering::Relaxed);
    }

    /// A per-rank snapshot — virtual clock, collectives entered, pending
    /// envelopes — for the abort/watchdog report. Must not be called while
    /// holding a mailbox queue lock.
    pub(crate) fn diagnostic(&self) -> String {
        let mut out = String::from("world state at abort:");
        for (rank, state) in self.states.iter().enumerate() {
            let clock = f64::from_bits(state.clock_bits.load(Ordering::Relaxed));
            let seq = state.seq.load(Ordering::Relaxed);
            let pending = lock_unpoisoned(&self.mailboxes[rank].queue).len();
            let _ = write!(
                out,
                "\n  rank {rank}: clock={}, collectives entered={seq}, \
                 {pending} envelope(s) pending",
                SimTime::from_secs(clock.max(0.0)),
            );
        }
        out
    }
}

/// One rank's endpoint: identity, mailbox access, and the virtual clock.
///
/// A `Comm` is created by [`World::run`](crate::World::run) and handed to the
/// per-rank closure; it is not `Sync` and must stay on its thread.
pub struct Comm {
    rank: usize,
    nprocs: usize,
    shared: Arc<Shared>,
    clock: SimTime,
    stats: CommStats,
    pool: BufferPool,
    /// Self-sends, short-circuited past the shared mailbox: no lock, no
    /// modeled transfer, no network stats. Only this thread touches it.
    self_queue: VecDeque<Envelope>,
    pub(crate) collective_seq: u32,
}

impl Comm {
    pub(crate) fn new(rank: usize, nprocs: usize, shared: Arc<Shared>) -> Self {
        Self {
            rank,
            nprocs,
            shared,
            clock: SimTime::ZERO,
            stats: CommStats::default(),
            pool: BufferPool::new(),
            self_queue: VecDeque::new(),
            collective_seq: 0,
        }
    }

    /// An empty byte buffer from this rank's recycle pool. Fill it and hand
    /// it to [`send_bytes`](Self::send_bytes)/
    /// [`post_bytes_at`](Self::post_bytes_at); the receiving rank recycles
    /// it after decoding.
    pub fn take_buf(&mut self) -> Vec<u8> {
        self.pool.take()
    }

    /// Returns a finished payload buffer to this rank's recycle pool.
    pub fn recycle_buf(&mut self, buf: Vec<u8>) {
        self.pool.put(buf);
    }

    /// `(buffers handed out, of which reused)` from this rank's pool.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.pool.stats()
    }

    /// This rank's id in `0..nprocs`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the run.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// The state shared by every rank of this run.
    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// The shared cluster cost model.
    pub fn model(&self) -> &ClusterModel {
        &self.shared.model
    }

    /// This rank's virtual clock.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Sets the clock and publishes it for the supervisor's diagnostics.
    fn set_clock(&mut self, t: SimTime) {
        self.clock = t;
        self.shared.publish_clock(self.rank, t);
    }

    /// Charges `dur` of local work (computation, memcpy, ...) to the clock.
    /// On a rank the fault plan marks as a straggler, the charge is scaled
    /// by its compute factor.
    pub fn advance(&mut self, dur: SimTime) {
        let dur = match &self.shared.model.fault {
            Some(plan) => dur.scale(plan.compute_factor(self.rank)),
            None => dur,
        };
        self.set_clock(self.clock + dur);
    }

    /// Moves the clock forward to at least `t` (never backwards).
    pub fn advance_to(&mut self, t: SimTime) {
        self.set_clock(self.clock.max(t));
    }

    /// Stamps `base` (an engine tag base occupying the top nibble) with
    /// this rank's collective sequence number and advances the counter —
    /// the same counter the built-in collectives use, so engine shuffles
    /// and collective internals share one monotonically-tagged space.
    /// Back-to-back or overlapping collectives therefore can never
    /// cross-match envelopes, even when their plans differ. Must be called
    /// SPMD-symmetrically (every rank, same order), like the collectives.
    pub fn next_engine_tag(&mut self, base: TagValue) -> TagValue {
        debug_assert_eq!(base & SEQ_MASK, 0, "engine tag base overlaps seq bits");
        let tag = base | (self.collective_seq & SEQ_MASK);
        self.collective_seq = self.collective_seq.wrapping_add(1);
        self.shared.publish_seq(self.rank, self.collective_seq);
        tag
    }

    /// Communication counters accumulated so far.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Sends raw bytes to `dst` with `tag`, charging the sender overhead to
    /// this rank's clock. Never blocks (eager buffered send).
    pub fn send_bytes(&mut self, dst: usize, tag: TagValue, payload: Vec<u8>) {
        self.set_clock(self.clock + self.shared.model.net.send_cost());
        let depart = self.clock;
        self.post_bytes_at(dst, tag, payload, depart);
    }

    /// Sends raw bytes with an explicit departure time and *without*
    /// touching this rank's clock. Engines that model their own overlap
    /// (I/O thread / shuffle thread lanes, as in the paper's Fig. 7) use
    /// this to stamp messages from lane times. Returns the arrival time.
    pub fn post_bytes_at(
        &mut self,
        dst: usize,
        tag: TagValue,
        payload: Vec<u8>,
        depart: SimTime,
    ) -> SimTime {
        let logical_len = payload.len();
        self.post_framed_bytes_at(dst, tag, payload, depart, logical_len)
    }

    /// [`post_bytes_at`](Self::post_bytes_at) for compressed frames: the
    /// wire (transfer time, `bytes_*` counters) is charged on the posted
    /// payload, while `logical_len` — the payload's decoded length —
    /// accumulates into the per-lane `logical_*` counters, so the
    /// logical-vs-wire gap in [`CommStats`] measures exactly what
    /// compression saved on each lane.
    pub fn post_framed_bytes_at(
        &mut self,
        dst: usize,
        tag: TagValue,
        payload: Vec<u8>,
        depart: SimTime,
        logical_len: usize,
    ) -> SimTime {
        assert!(dst < self.nprocs, "send to rank {dst} of {}", self.nprocs);
        if dst == self.rank {
            // Self-send short-circuit: the payload never leaves this thread,
            // so there is no envelope in the shared mailbox, no modeled
            // transfer or fault delay, and no network stats — the message
            // "arrives" the moment it departs.
            self.stats.msgs_self += 1;
            self.stats.bytes_self += payload.len();
            self.stats.logical_self += logical_len;
            self.self_queue.push_back(Envelope {
                src: self.rank,
                tag,
                arrival: depart,
                payload,
            });
            return depart;
        }
        let same_node = self.shared.model.topology.same_node(self.rank, dst);
        let mut arrival = depart + self.shared.model.net.transfer_time(payload.len(), same_node);
        // Injected link degradation: fixed per-link delay plus deterministic
        // jitter, keyed by this sender's message count so repeats differ.
        if let Some(plan) = &self.shared.model.fault {
            arrival += plan.link_extra(self.rank, dst, self.stats.msgs_sent as u64);
        }
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += payload.len();
        if same_node {
            self.stats.msgs_intra += 1;
            self.stats.bytes_intra += payload.len();
            self.stats.logical_intra += logical_len;
        } else {
            self.stats.msgs_inter += 1;
            self.stats.bytes_inter += payload.len();
            self.stats.logical_inter += logical_len;
        }
        let env = Envelope {
            src: self.rank,
            tag,
            arrival,
            payload,
        };
        let mailbox = &self.shared.mailboxes[dst];
        lock_unpoisoned(&mailbox.queue).push_back(env);
        mailbox.arrived.notify_all();
        self.shared.note_progress();
        arrival
    }

    /// Pops the first queued self-delivery matching `src`/`tag`, if any.
    /// Self-deliveries are not network messages, so the receive counters
    /// stay untouched (the send side already counted it as a self message).
    fn take_self(&mut self, src: Source, tag: TagValue) -> Option<(Vec<u8>, RecvInfo)> {
        let pos = self.self_queue.iter().position(|e| e.matches(src, tag))?;
        let env = self.self_queue.remove(pos).expect("position is in range");
        let info = RecvInfo {
            src: env.src,
            tag: env.tag,
            arrival: env.arrival,
        };
        Some((env.payload, info))
    }

    /// Receives one message matching `src`/`tag`, blocking until it arrives.
    /// Advances the clock to the message's arrival time.
    pub fn recv_bytes(&mut self, src: impl Into<Source>, tag: TagValue) -> (Vec<u8>, RecvInfo) {
        let (payload, info) = self.recv_bytes_no_clock(src, tag);
        self.set_clock(self.clock.max(info.arrival));
        (payload, info)
    }

    /// Receives like [`recv_bytes`](Self::recv_bytes) but leaves the clock
    /// untouched — for engines that account arrival times into their own
    /// lane structures.
    ///
    /// Blocked receives are supervised: if any rank panics, the supervisor
    /// sets the world's abort flag and wakes every mailbox condvar, and
    /// this call unwinds immediately (quietly — the originating rank's
    /// panic is the one `World::run` reports). The deadlock watchdog is
    /// quiet-window based: the simulation runs in virtual time, so a
    /// receive can legitimately stay parked for a long *real* time while
    /// its peers churn through other traffic (deep pipelining, loaded CI
    /// hosts). The watchdog therefore re-arms on any global mailbox
    /// progress — and only panics, with a per-rank diagnostic snapshot,
    /// after the whole world has been silent for a full `recv_watchdog`
    /// window. The deadline is absolute, so spurious condvar wakeups near
    /// the deadline never double-count elapsed time.
    pub fn recv_bytes_no_clock(
        &mut self,
        src: impl Into<Source>,
        tag: TagValue,
    ) -> (Vec<u8>, RecvInfo) {
        let src = src.into();
        // Self-sends never enter the shared mailbox; they can only already
        // be queued locally (this thread cannot send while blocked here),
        // so one check up front suffices.
        if let Some(hit) = self.take_self(src, tag) {
            return hit;
        }
        let watchdog = self.shared.model.recv_watchdog;
        let mailbox = &self.shared.mailboxes[self.rank];
        let mut queue = lock_unpoisoned(&mailbox.queue);
        let mut seen = self.shared.progress();
        let mut deadline = Instant::now() + watchdog;
        loop {
            if self.shared.is_aborted() {
                drop(queue);
                // Unwind without invoking the panic hook: this rank is a
                // casualty, not the cause.
                std::panic::resume_unwind(Box::new(WorldAborted));
            }
            if let Some(pos) = queue.iter().position(|e| e.matches(src, tag)) {
                let env = queue.remove(pos).expect("position is in range");
                drop(queue);
                self.shared.note_progress();
                self.stats.msgs_recv += 1;
                self.stats.bytes_recv += env.payload.len();
                let info = RecvInfo {
                    src: env.src,
                    tag: env.tag,
                    arrival: env.arrival,
                };
                return (env.payload, info);
            }
            let now = Instant::now();
            if now >= deadline {
                let current = self.shared.progress();
                if current != seen {
                    // The world moved while we slept: re-arm and demand a
                    // full quiet window before declaring a deadlock.
                    seen = current;
                    deadline = now + watchdog;
                } else if !self.shared.is_aborted() {
                    let pending = queue.len();
                    drop(queue);
                    panic!(
                        "rank {} deadlocked waiting for src={src:?} tag={tag:#x} \
                         ({pending} messages pending, none match; no mailbox \
                         progress anywhere for {watchdog:?})\n{}",
                        self.rank,
                        self.shared.diagnostic(),
                    );
                }
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            let (guard, _timeout) = mailbox
                .arrived
                .wait_timeout(queue, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
        }
    }

    /// Non-blocking receive: returns the first matching message if one is
    /// already queued.
    pub fn try_recv_bytes(
        &mut self,
        src: impl Into<Source>,
        tag: TagValue,
    ) -> Option<(Vec<u8>, RecvInfo)> {
        let src = src.into();
        if let Some((payload, info)) = self.take_self(src, tag) {
            self.set_clock(self.clock.max(info.arrival));
            return Some((payload, info));
        }
        let mailbox = &self.shared.mailboxes[self.rank];
        let mut queue = lock_unpoisoned(&mailbox.queue);
        let pos = queue.iter().position(|e| e.matches(src, tag))?;
        let env = queue.remove(pos).expect("position is in range");
        drop(queue);
        self.shared.note_progress();
        self.stats.msgs_recv += 1;
        self.stats.bytes_recv += env.payload.len();
        self.set_clock(self.clock.max(env.arrival));
        let info = RecvInfo {
            src: env.src,
            tag: env.tag,
            arrival: env.arrival,
        };
        Some((env.payload, info))
    }

    /// Typed send: encodes `data` into a pooled buffer and sends it. Sends
    /// are always eager and buffered, so this is also the non-blocking
    /// `MPI_Isend`.
    pub fn send<T: Elem>(&mut self, dst: usize, tag: TagValue, data: &[T]) {
        let mut buf = self.pool.take();
        encode_slice_into(data, &mut buf);
        self.send_bytes(dst, tag, buf);
    }

    /// Posts a non-blocking receive. The returned request completes via
    /// [`RecvRequest::test`] or [`RecvRequest::wait`].
    pub fn irecv(&self, src: impl Into<Source>, tag: TagValue) -> RecvRequest {
        RecvRequest {
            src: src.into(),
            tag,
        }
    }

    /// Typed receive: blocks for a matching message, decodes it, and
    /// recycles the payload buffer into this rank's pool.
    pub fn recv<T: Elem>(&mut self, src: impl Into<Source>, tag: TagValue) -> (Vec<T>, RecvInfo) {
        let (bytes, info) = self.recv_bytes(src, tag);
        let data = decode_vec(&bytes);
        self.pool.put(bytes);
        (data, info)
    }
}

/// A pending non-blocking receive (`MPI_Irecv` analogue). Matching only
/// happens at `test`/`wait`; posting the request costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct RecvRequest {
    src: Source,
    tag: TagValue,
}

impl RecvRequest {
    /// Completes the receive, blocking until a matching message arrives.
    pub fn wait<T: Elem>(self, comm: &mut Comm) -> (Vec<T>, RecvInfo) {
        comm.recv(self.src, self.tag)
    }

    /// Attempts to complete the receive without blocking; returns the
    /// request back if no matching message is queued yet.
    pub fn test<T: Elem>(self, comm: &mut Comm) -> Result<(Vec<T>, RecvInfo), RecvRequest> {
        match comm.try_recv_bytes(self.src, self.tag) {
            Some((bytes, info)) => {
                let data = decode_vec(&bytes);
                comm.recycle_buf(bytes);
                Ok((data, info))
            }
            None => Err(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    fn tiny(n: usize) -> World {
        World::new(n, ClusterModel::test_tiny(n))
    }

    #[test]
    fn ping_pong_moves_data_and_time() {
        let results = tiny(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &[1.0f64, 2.0, 3.0]);
                let (data, info) = comm.recv::<f64>(1, 8);
                assert_eq!(info.src, 1);
                (data, comm.clock())
            } else {
                let (mut data, _) = comm.recv::<f64>(0, 7);
                for v in &mut data {
                    *v *= 10.0;
                }
                comm.send(0, 8, &data);
                (data, comm.clock())
            }
        });
        assert_eq!(results[0].0, vec![10.0, 20.0, 30.0]);
        // Rank 0's clock includes two message flights: strictly positive,
        // and the round trip ends after rank 1 posted its reply.
        assert!(results[0].1 > SimTime::ZERO);
        assert!(results[0].1 > results[1].1);
    }

    #[test]
    fn tag_matching_is_selective() {
        let results = tiny(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1u32]);
                comm.send(1, 2, &[2u32]);
                comm.send(1, 3, &[3u32]);
                vec![]
            } else {
                // Receive out of send order by tag.
                let (c, _) = comm.recv::<u32>(0, 3);
                let (a, _) = comm.recv::<u32>(0, 1);
                let (b, _) = comm.recv::<u32>(0, 2);
                vec![a[0], b[0], c[0]]
            }
        });
        assert_eq!(results[1], vec![1, 2, 3]);
    }

    #[test]
    fn wildcard_source_and_tag() {
        let results = tiny(3).run(|comm| {
            if comm.rank() == 2 {
                let mut got = Vec::new();
                for _ in 0..2 {
                    let (v, info) = comm.recv::<u64>(Source::Any, ANY_TAG);
                    got.push((info.src, v[0]));
                }
                got.sort_unstable();
                got
            } else {
                comm.send(2, comm.rank() as TagValue, &[comm.rank() as u64 * 100]);
                vec![]
            }
        });
        assert_eq!(results[2], vec![(0, 0), (1, 100)]);
    }

    #[test]
    fn fifo_per_source_and_tag() {
        let results = tiny(2).run(|comm| {
            if comm.rank() == 0 {
                for i in 0..100u32 {
                    comm.send(1, 5, &[i]);
                }
                vec![]
            } else {
                (0..100).map(|_| comm.recv::<u32>(0, 5).0[0]).collect()
            }
        });
        assert_eq!(results[1], (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn irecv_test_and_wait() {
        tiny(2).run(|comm| {
            if comm.rank() == 0 {
                // Nothing queued yet: test fails and returns the request.
                let req = comm.irecv(1, 3);
                let req = match req.test::<u32>(comm) {
                    Err(r) => r,
                    Ok(_) => panic!("nothing was sent yet"),
                };
                comm.send(1, 2, &[1u8]); // release the peer
                let (data, info) = req.wait::<u32>(comm);
                assert_eq!(data, vec![77]);
                assert_eq!(info.src, 1);
            } else {
                let _ = comm.recv::<u8>(0, 2);
                comm.send(0, 3, &[77u32]);
            }
        });
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        tiny(2).run(|comm| {
            if comm.rank() == 0 {
                assert!(comm.try_recv_bytes(1, 9).is_none());
            }
        });
    }

    #[test]
    fn clock_advances_on_recv_to_arrival() {
        let results = tiny(2).run(|comm| {
            if comm.rank() == 0 {
                // Do a lot of local "work" first so rank 1's message is old.
                comm.advance(SimTime::from_secs(5.0));
                comm.send(1, 0, &[0u8]);
                comm.clock()
            } else {
                let (_, info) = comm.recv_bytes(0, 0);
                // Arrival is after sender's 5 seconds of work.
                assert!(info.arrival > SimTime::from_secs(5.0));
                assert_eq!(comm.clock(), info.arrival);
                comm.clock()
            }
        });
        assert!(results[1] > results[0].saturating_since(SimTime::from_secs(0.1)));
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let results = tiny(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[1.0f64; 10]);
                comm.stats()
            } else {
                let _ = comm.recv::<f64>(0, 0);
                comm.stats()
            }
        });
        assert_eq!(results[0].msgs_sent, 1);
        assert_eq!(results[0].bytes_sent, 80);
        assert_eq!(results[1].msgs_recv, 1);
        assert_eq!(results[1].bytes_recv, 80);
    }

    #[test]
    fn self_send_short_circuits_the_network() {
        let results = tiny(2).run(|comm| {
            if comm.rank() == 0 {
                let before = comm.clock();
                comm.send(0, 42, &[7.0f64, 8.0]);
                // FIFO with a second self message on the same tag.
                comm.send(0, 42, &[9.0f64]);
                let (a, info) = comm.recv::<f64>(0, 42);
                assert_eq!(a, vec![7.0, 8.0]);
                assert_eq!(info.src, 0);
                // Arrival is the departure: no latency or transfer charged,
                // only the sender-side overhead of the two posts.
                let send_cost = comm.model().net.send_cost();
                assert_eq!(info.arrival, before + send_cost);
                let (b, _) = comm.recv::<f64>(Source::Any, 42);
                assert_eq!(b, vec![9.0]);
            }
            comm.stats()
        });
        // Self-deliveries count as zero network messages on both sides.
        assert_eq!(results[0].msgs_sent, 0);
        assert_eq!(results[0].bytes_sent, 0);
        assert_eq!(results[0].msgs_recv, 0);
        assert_eq!(results[0].bytes_recv, 0);
        assert_eq!(results[0].msgs_intra + results[0].msgs_inter, 0);
        assert_eq!(results[0].msgs_self, 2);
        assert_eq!(results[0].bytes_self, 24);
    }

    #[test]
    fn stats_split_intra_and_inter_node() {
        // 2 nodes x 2 cores: rank 0 -> 1 is intra, rank 0 -> 2 is inter.
        let model = ClusterModel::hopper_like(2, 2);
        let results = World::new(4, model).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[1u8; 10]);
                comm.send(2, 1, &[1u8; 30]);
            } else if comm.rank() < 3 {
                let _ = comm.recv::<u8>(0, 1);
            }
            comm.stats()
        });
        assert_eq!(results[0].msgs_intra, 1);
        assert_eq!(results[0].bytes_intra, 10);
        assert_eq!(results[0].msgs_inter, 1);
        assert_eq!(results[0].bytes_inter, 30);
        assert_eq!(results[0].msgs_sent, 2);
        assert_eq!(results[0].bytes_sent, 40);
    }

    #[test]
    #[should_panic]
    fn send_to_out_of_range_rank_panics() {
        tiny(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(5, 0, &[0u8]);
            }
        });
    }

    #[test]
    fn watchdog_rearms_on_global_progress() {
        use std::time::Duration;
        // Regression: the watchdog measures *real* wall-clock while the
        // simulation runs in virtual time. Rank 0 blocks for several full
        // watchdog windows while ranks 1 and 2 keep trafficking between
        // themselves — progress that never touches rank 0's mailbox. The
        // old per-wait timeout (re-armed only by deliveries to the waiting
        // rank) declared a false deadlock here; the quiet-window watchdog
        // must ride out the busy period and complete the receive.
        let model =
            ClusterModel::test_tiny(3).with_recv_watchdog(Duration::from_millis(150));
        let results = World::new(3, model).run(|comm| match comm.rank() {
            0 => comm.recv::<u32>(1, 1).0[0],
            1 => {
                // Stay busy well past several watchdog windows, then
                // release rank 0.
                for i in 0..10u32 {
                    std::thread::sleep(Duration::from_millis(50));
                    comm.send(2, 2, &[i]);
                }
                comm.send(0, 1, &[42u32]);
                0
            }
            _ => {
                for _ in 0..10 {
                    let _ = comm.recv::<u32>(1, 2);
                }
                0
            }
        });
        assert_eq!(results[0], 42);
    }

    #[test]
    fn watchdog_still_catches_true_deadlock() {
        use std::time::Duration;
        // A genuinely silent world must still trip the watchdog after one
        // full quiet window, with the diagnostic snapshot attached.
        let model =
            ClusterModel::test_tiny(2).with_recv_watchdog(Duration::from_millis(150));
        let t0 = Instant::now();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            World::new(2, model).run(|comm| {
                if comm.rank() == 0 {
                    // Nobody ever sends tag 99.
                    let _ = comm.recv::<u8>(1, 99);
                }
            })
        }));
        let payload = result.expect_err("silent world must trip the watchdog");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("<non-string panic>");
        assert!(
            msg.contains("deadlocked waiting"),
            "watchdog panic must describe the deadlock, got: {msg}"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "watchdog must fire promptly, took {:?}",
            t0.elapsed()
        );
    }
}
