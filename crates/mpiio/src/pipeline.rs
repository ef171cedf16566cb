//! The aggregator iteration pipeline of the paper's Fig. 7, shared by the
//! read, write and collective-computing engines.
//!
//! An aggregator walks the active collective-buffer iterations of its file
//! domain in order, staging each in a buffer slot (read into it, or
//! assembled in it) and then draining it: shuffled to the requesters
//! (two-phase read), folded by a map kernel (collective computing) or
//! written back (collective write). `Staging` applies the
//! [`PipelineDepth`] hint to the slots; [`read_ahead`] is the read side's
//! one issue/drain loop. Depth 1 strictly alternates read and drain,
//! depth 2 is the classic double buffer, and unbounded staging gates reads
//! by the I/O lane alone.

use cc_model::{BufferRing, Lane, SimTime};
use cc_pfs::{FileHandle, Pfs};
use cc_profile::{Activity, Segment};

use crate::hints::PipelineDepth;
use crate::schedule::PlanSchedule;

/// The staging slots of one aggregator's pipeline. With a bounded depth
/// `d` the iteration at position `pos` may not refill its slot before the
/// iteration at `pos - d` has drained it (a [`BufferRing`]). Unbounded
/// staging keeps no ring: the engine is assumed to have enough buffers to
/// keep the disk streaming, which also keeps all ranks' file-system
/// requests causally close in virtual time.
#[derive(Debug, Clone)]
pub(crate) struct Staging {
    depth: Option<usize>,
    ring: Option<BufferRing>,
    slots: usize,
}

impl Staging {
    /// Staging for `iterations` iterations at `depth`.
    pub(crate) fn new(depth: PipelineDepth, iterations: usize) -> Self {
        let depth = depth.bound();
        Self {
            depth,
            ring: depth.map(BufferRing::new),
            // One host buffer per in-flight iteration; unbounded staging
            // drains each read before issuing the next, so one suffices.
            slots: depth.unwrap_or(1).min(iterations).max(1),
        }
    }

    /// How many host buffers the pipeline cycles through.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// The buffer the iteration at `pos` is staged in.
    pub(crate) fn slot(&self, pos: usize) -> usize {
        pos % self.slots
    }

    /// The earliest time the iteration at `pos` may fill its slot.
    pub(crate) fn floor(&self, pos: usize) -> SimTime {
        self.ring.as_ref().map_or(SimTime::ZERO, |r| r.available(pos))
    }

    /// Records that the iteration at `pos` drained its slot at `t`.
    pub(crate) fn drain(&mut self, pos: usize, t: SimTime) {
        if let Some(r) = self.ring.as_mut() {
            r.drain(pos, t);
        }
    }

    /// One past the last position whose read may be issued before the
    /// iteration at `pos` drains, out of `len`.
    fn horizon(&self, pos: usize, len: usize) -> usize {
        match self.depth {
            Some(d) => len.min(pos + d),
            None => pos + 1,
        }
    }
}

/// One collective-buffer iteration staged by [`read_ahead`], handed to the
/// engine's drain step.
#[derive(Debug, Clone, Copy)]
pub struct Staged<'a> {
    /// The iteration index, as used by the [`PlanSchedule`] queries.
    pub iter: usize,
    /// File offset of `bytes[0]`.
    pub lo: u64,
    /// The `(offset, len)` file ranges that were read into `bytes`.
    pub ranges: &'a [(u64, u64)],
    /// When the read was issued.
    pub ready: SimTime,
    /// When the read completed — the earliest the drain may start.
    pub done: SimTime,
    /// The staged bytes; gap bytes between `ranges` are unspecified.
    pub bytes: &'a [u8],
}

/// Runs aggregator `agg_idx`'s read-ahead pipeline from `start`. Before
/// draining the iteration at `pos`, every iteration up to `depth` ahead is
/// read in one vectorized [`Pfs::read_multi`] into its slot of `slots`
/// (grown as needed), with a `Wait` segment pushed to `segments`; then
/// `drain` consumes the staged iteration and returns when it released the
/// slot. An iteration with nothing to read is skipped, so its slot keeps
/// the previous occupant's drain time. Returns the time the last drain
/// finished (`start` if none ran) and the bytes read.
#[allow(clippy::too_many_arguments)]
pub fn read_ahead(
    pfs: &Pfs,
    file: &FileHandle,
    schedule: &PlanSchedule,
    agg_idx: usize,
    depth: PipelineDepth,
    start: SimTime,
    slots: &mut Vec<Vec<u8>>,
    segments: &mut Vec<Segment>,
    mut drain: impl FnMut(Staged<'_>, &mut Vec<Segment>) -> SimTime,
) -> (SimTime, u64) {
    let iters = schedule.active_iterations(agg_idx);
    let mut staging = Staging::new(depth, iters.len());
    if slots.len() < staging.slots() {
        slots.resize_with(staging.slots(), Vec::new);
    }
    let mut io_lane = Lane::free_from(start);
    // `(ready, done)` per position, filled at issue and consumed at drain.
    let mut reads: Vec<Option<(SimTime, SimTime)>> = vec![None; iters.len()];
    let mut issued = 0usize;
    let mut bytes_read = 0u64;
    let mut last = start;
    for (pos, &iter) in iters.iter().enumerate() {
        while issued < staging.horizon(pos, iters.len()) {
            let j = issued;
            issued += 1;
            let ranges = schedule.read_ranges(agg_idx, iters[j]);
            let Some(&(lo, _)) = ranges.first() else {
                continue;
            };
            let ready = io_lane.free_at().max(staging.floor(j));
            let done = pfs.read_multi(file, lo, ranges, ready, &mut slots[staging.slot(j)]);
            io_lane.advance_to(done);
            bytes_read += ranges.iter().map(|&(_, len)| len).sum::<u64>();
            segments.push(Segment::new(ready, done, Activity::Wait));
            reads[j] = Some((ready, done));
        }
        let Some((ready, done)) = reads[pos] else {
            continue;
        };
        let ranges = schedule.read_ranges(agg_idx, iter);
        let staged = Staged {
            iter,
            lo: ranges[0].0,
            ranges,
            ready,
            done,
            bytes: &slots[staging.slot(pos)],
        };
        let drained = drain(staged, segments);
        staging.drain(pos, drained);
        last = last.max(drained);
    }
    (last, bytes_read)
}
