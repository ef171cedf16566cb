//! Compiled collective plans: one-sweep shuffle schedules and plan caching.
//!
//! [`CollectivePlan`] answers every schedule question by re-scanning all
//! ranks' offset lists (`locate`/`bytes_in` per aggregator per iteration
//! per call site), so planning cost is O(iterations × ranks × log extents)
//! *per query* — and the engines query it from every hot loop.
//! [`PlanSchedule`] compiles the complete schedule once, with a single
//! linear co-sweep over all ranks' extents, into CSR-style flat tables:
//! per (aggregator, iteration) slot the covering read range, the
//! destination ranks, and each destination's piece slice; per rank the
//! ordered `(agg, iter)` source list. Every query the engines make becomes
//! an O(1) or slice lookup, and the per-call `Vec<Piece>` allocations of
//! the query API disappear.
//!
//! [`PlanCache`] layers reuse on top for iterative sweeps
//! (`cc-core::iterative`): schedules are keyed by a request-shape
//! fingerprint plus hints, rank count, and topology. When a later step's
//! requests are a constant-offset translation of a cached step's (the
//! canonical timestep sweep), the compiled schedule is *translated*
//! instead of recompiled: the shape-invariant index tables are shared by
//! `Arc` and only the offset-bearing geometry columns are copied and
//! shifted; identical requests are reused outright, sharing everything.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use cc_model::Topology;

use crate::exchange::RequestTable;
use crate::extent::{Extent, OffsetList, Piece};
use crate::hints::Hints;
use crate::plan::CollectivePlan;

/// The index tables of one compiled schedule: everything that depends only
/// on the *shape* of the request set. Invariant under offset translation,
/// so translated schedules share them by `Arc` instead of copying.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScheduleIndex {
    /// Slot base per aggregator: slot `(a, it)` is `iter_base[a] + it`.
    /// Length `naggs + 1`; the last entry is the total slot count.
    iter_base: Vec<usize>,
    /// CSR of active (non-empty) iterations per aggregator.
    active_base: Vec<usize>,
    active_iters: Vec<usize>,
    /// CSR of destination ranks per slot, ascending within a slot.
    dest_base: Vec<usize>,
    dest_rank: Vec<usize>,
    /// Piece slice per destination entry (parallel to `dest_rank`, with a
    /// final end sentinel): destination `d` owns `pieces[piece_base[d]..
    /// piece_base[d + 1]]`, in file (and buffer) order.
    piece_base: Vec<usize>,
    /// CSR of `(agg_idx, iter)` sources per rank, in deterministic
    /// (aggregator, iteration) order.
    src_base: Vec<usize>,
    sources: Vec<(usize, usize)>,
    /// Destination-table index of each source entry (parallel to
    /// `sources`): rank `r`'s `k`-th source chunk delivers exactly
    /// `pieces[piece_base[d]..piece_base[d + 1]]` where
    /// `d = src_dest[src_base[r] + k]` — receivers look their pieces up
    /// without re-searching the destination lists.
    src_dest: Vec<usize>,
    /// CSR bounds of each slot's covering read ranges (one range per
    /// covered block holding requested bytes). Range *counts* are shape
    /// properties, so this lives with the shareable index; the offsets
    /// themselves are in [`ScheduleGeom::ranges`].
    range_base: Vec<usize>,
}

/// The offset-bearing tables of one compiled schedule — the only columns a
/// translation has to rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScheduleGeom {
    /// Per-slot covering read range; `u64::MAX`/`0` sentinel when the slot
    /// holds no requested bytes.
    read_lo: Vec<u64>,
    read_hi: Vec<u64>,
    pieces: Vec<Piece>,
    /// Per-block covering `(offset, len)` read extents, CSR-indexed by
    /// [`ScheduleIndex::range_base`] — the range list one vectorized
    /// file-system call services per iteration.
    ranges: Vec<(u64, u64)>,
}

/// A [`CollectivePlan`] compiled into flat lookup tables.
///
/// Answers are bit-identical to the query methods of the plan it was built
/// from (property-tested in `tests/`), but cost O(1) or a slice borrow
/// instead of a rescan, and cloning shares the tables.
#[derive(Debug, Clone)]
pub struct PlanSchedule {
    plan: CollectivePlan,
    index: Arc<ScheduleIndex>,
    geom: Arc<ScheduleGeom>,
}

impl PlanSchedule {
    /// Compiles `plan` with one linear co-sweep over all ranks' offset
    /// lists. Cost is O(total extents + slots + pieces + ranks), after
    /// which every query is allocation-free.
    ///
    /// The sweep is domain-major: one aggregator's file domain at a time,
    /// walking each rank's extents from a persistent cursor (domains and
    /// extents both ascend, so every extent is visited once, plus once per
    /// domain boundary it spans). That keeps the counting-sort that groups
    /// a slot's pieces by destination inside a per-domain scratch small
    /// enough to stay cache-resident, and makes every global table a
    /// sequential append — slots are emitted in `(agg, iter)` order.
    ///
    /// Strided (group-cyclic) domains interleave across aggregators, so
    /// the persistent-cursor sweep does not apply; those plans use a
    /// per-domain `locate` walk instead, feeding the identical per-domain
    /// record stream (rank-major, iteration-ascending within rank) into
    /// the same counting-sort scatter.
    pub fn compile(plan: CollectivePlan) -> Self {
        let naggs = plan.aggregators.len();
        let nprocs = plan.requests.len();
        let cb = plan.cb;
        // The persistent cursor requires ascending contiguous domains —
        // true for even/stripe-aligned partitions, not for group-cyclic.
        let contiguous_sweep = plan.domains.iter().all(|d| d.is_contiguous());

        // Slot layout: one slot per (aggregator, iteration).
        let mut iter_base = Vec::with_capacity(naggs + 1);
        iter_base.push(0usize);
        for a in 0..naggs {
            iter_base.push(iter_base[a] + plan.n_iterations(a));
        }
        let slots = iter_base[naggs];

        let mut read_lo = vec![u64::MAX; slots];
        let mut read_hi = vec![0u64; slots];
        let mut range_base = Vec::with_capacity(slots + 1);
        range_base.push(0usize);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        // Per-slot scratch for the block-covering post-pass:
        // (block, cover_lo, cover_hi).
        let mut blk_cov: Vec<(u64, u64, u64)> = Vec::new();
        let mut active_base = Vec::with_capacity(naggs + 1);
        let mut active_iters = Vec::new();
        active_base.push(0usize);
        let mut dest_base = Vec::with_capacity(slots + 1);
        dest_base.push(0usize);
        let mut dest_rank = Vec::new();
        let mut piece_base = Vec::new();
        let mut pieces: Vec<Piece> = Vec::new();
        // Source lists are per-rank but emitted domain-major; collect them
        // per rank (aggregator order is preserved) with the destination
        // entry each source corresponds to, and concatenate below. A rank
        // rarely has more sources than extents, so reserving that much
        // avoids growth reallocations in the common case.
        let mut rank_sources: Vec<Vec<(usize, usize, usize)>> = plan
            .requests
            .iter()
            .map(|r| Vec::with_capacity(r.extents().len()))
            .collect();

        // Per-rank sweep cursor: index of the first extent not fully behind
        // the domains processed so far, and its request-buffer offset.
        let mut cursor = vec![0usize; nprocs];
        let mut bufpos = vec![0u64; nprocs];

        // Per-domain scratch, reused across aggregators. Records are
        // rank-major and iteration-sorted within a rank (extents ascend).
        let mut recs: Vec<(u32, u32, Piece)> = Vec::new(); // (it, rank, piece)
        let mut piece_count: Vec<usize> = Vec::new();
        let mut dest_count: Vec<usize> = Vec::new();
        let mut last_rank: Vec<usize> = Vec::new();
        let mut next_piece: Vec<usize> = Vec::new();
        let mut next_dest: Vec<usize> = Vec::new();
        let mut local_pieces: Vec<Piece> = Vec::new();
        let mut local_dest_rank: Vec<usize> = Vec::new();
        let mut local_piece_base: Vec<usize> = Vec::new();

        // Every extent yields at least one piece; reserving the common case
        // up front keeps the append-only growth of the largest table from
        // re-copying it.
        pieces.reserve(plan.requests.iter().map(|r| r.extents().len()).sum());

        for a in 0..naggs {
            let dom = plan.domains[a];
            let (dlo, dhi) = dom.bounds();
            let n_it = iter_base[a + 1] - iter_base[a];
            if dlo >= dhi || n_it == 0 {
                active_base.push(active_iters.len());
                continue;
            }
            recs.clear();
            // Piece and destination counts per iteration, gathered during
            // the sweep: every record is one piece, and a destination opens
            // exactly when a rank first touches an iteration — the same
            // transition that emits the rank's source entry (one rank's
            // records for an iteration are contiguous, ranks ascend).
            piece_count.clear();
            piece_count.resize(n_it, 0);
            dest_count.clear();
            dest_count.resize(n_it, 0);
            if contiguous_sweep {
                for r in 0..nprocs {
                    let exts = plan.requests[r].extents();
                    let mut i = cursor[r];
                    let mut buf = bufpos[r];
                    while i < exts.len() && exts[i].end() <= dlo {
                        buf += exts[i].len;
                        i += 1;
                    }
                    let mut prev_it = usize::MAX;
                    // Rolling chunk cursor: extents ascend, so the first
                    // overlapped iteration only moves forward. The division is
                    // needed only when an extent spans several chunks.
                    let mut cur_it = 0usize;
                    let mut cur_end = dlo + cb;
                    while i < exts.len() {
                        let e = exts[i];
                        if e.offset >= dhi {
                            break;
                        }
                        let clip_lo = e.offset.max(dlo);
                        let clip_hi = e.end().min(dhi);
                        if clip_lo < clip_hi {
                            while clip_lo >= cur_end {
                                cur_it += 1;
                                cur_end += cb;
                            }
                            let first = cur_it;
                            let last = if clip_hi <= cur_end {
                                cur_it
                            } else {
                                ((clip_hi - 1 - dlo) / cb) as usize
                            };
                            for it in first..=last {
                                let c_lo = dlo + cb * it as u64;
                                let c_hi = (c_lo + cb).min(dhi);
                                let p_lo = clip_lo.max(c_lo);
                                let p_hi = clip_hi.min(c_hi);
                                debug_assert!(p_lo < p_hi);
                                let slot = iter_base[a] + it;
                                read_lo[slot] = read_lo[slot].min(p_lo);
                                read_hi[slot] = read_hi[slot].max(p_hi);
                                piece_count[it] += 1;
                                recs.push((
                                    it as u32,
                                    r as u32,
                                    Piece {
                                        extent: Extent {
                                            offset: p_lo,
                                            len: p_hi - p_lo,
                                        },
                                        buf_offset: buf + (p_lo - e.offset),
                                    },
                                ));
                                if it != prev_it {
                                    prev_it = it;
                                    dest_count[it] += 1;
                                }
                            }
                        }
                        if e.end() <= dhi {
                            buf += e.len;
                            i += 1;
                        } else {
                            // Spans into the next domain: leave the cursor on it.
                            break;
                        }
                    }
                    cursor[r] = i;
                    bufpos[r] = buf;
                }
            } else {
                // Strided domain: locate each rank's pieces in the bounding
                // box, then clip them to the domain's blocks and chunks. The
                // in-domain offset→iteration map is monotone in file offset,
                // so the record stream keeps the invariants the scatter
                // relies on (rank-major, iterations ascending within a rank,
                // per-(it, rank) records contiguous).
                let cpb = dom.chunks_per_block(cb);
                let bpc = dom.blocks_per_chunk(cb);
                for r in 0..nprocs {
                    let mut prev_it = usize::MAX;
                    for piece in plan.requests[r].locate(dlo, dhi) {
                        let (plo, phi) = (piece.extent.offset, piece.extent.end());
                        let first_b = (plo.max(dom.start) - dom.start) / dom.stride;
                        let last_b = ((phi - 1 - dom.start) / dom.stride).min(dom.nblocks - 1);
                        for b in first_b..=last_b {
                            let bstart = dom.start + b * dom.stride;
                            let bend = bstart + dom.block;
                            let s = plo.max(bstart);
                            let e = phi.min(bend);
                            if s >= e {
                                continue;
                            }
                            let first_c = ((s - bstart) / cb) as usize;
                            let last_c = ((e - 1 - bstart) / cb) as usize;
                            for c in first_c..=last_c {
                                let c_lo = bstart + cb * c as u64;
                                let c_hi = (c_lo + cb).min(bend);
                                let p_lo = s.max(c_lo);
                                let p_hi = e.min(c_hi);
                                debug_assert!(p_lo < p_hi);
                                // Merged multi-block iterations (cpb == 1,
                                // bpc > 1) map consecutive blocks onto one
                                // slot; block order keeps the stream's
                                // iteration-ascending invariant.
                                let it = if cpb > 1 {
                                    b as usize * cpb + c
                                } else {
                                    (b / bpc) as usize
                                };
                                let slot = iter_base[a] + it;
                                read_lo[slot] = read_lo[slot].min(p_lo);
                                read_hi[slot] = read_hi[slot].max(p_hi);
                                piece_count[it] += 1;
                                recs.push((
                                    it as u32,
                                    r as u32,
                                    Piece {
                                        extent: Extent {
                                            offset: p_lo,
                                            len: p_hi - p_lo,
                                        },
                                        buf_offset: piece.buf_offset + (p_lo - plo),
                                    },
                                ));
                                if it != prev_it {
                                    prev_it = it;
                                    dest_count[it] += 1;
                                }
                            }
                        }
                    }
                }
            }

            // Relative write cursors for this domain's slots, and the CSR
            // boundaries they imply.
            next_piece.clear();
            next_dest.clear();
            let piece_off0 = pieces.len();
            let dest_off0 = dest_rank.len();
            let mut p = 0usize;
            let mut d = 0usize;
            for it in 0..n_it {
                next_piece.push(p);
                next_dest.push(d);
                p += piece_count[it];
                d += dest_count[it];
                dest_base.push(dest_off0 + d);
            }

            // Stable scatter within this domain's slots: pieces land in
            // rank order (record order) and file order, so each
            // destination's pieces are contiguous and `piece_base[d]` is the
            // piece cursor at the moment destination `d` opens. The scatter
            // goes through small reused staging buffers (cache-resident),
            // and the global tables grow by one sequential append per
            // domain.
            // Grow-only staging: the scatter writes every one of the `p`
            // piece and `d` destination entries, so stale tails never leak
            // and re-zeroing the buffers each domain would be a wasted
            // second write pass.
            if local_pieces.len() < p {
                local_pieces.resize(
                    p,
                    Piece {
                        extent: Extent { offset: 0, len: 0 },
                        buf_offset: 0,
                    },
                );
            }
            if local_dest_rank.len() < d {
                local_dest_rank.resize(d, 0);
                local_piece_base.resize(d, 0);
            }
            last_rank.clear();
            last_rank.resize(n_it, usize::MAX);
            for &(it, r, piece) in &recs {
                let (it, r) = (it as usize, r as usize);
                if last_rank[it] != r {
                    last_rank[it] = r;
                    let d = next_dest[it];
                    next_dest[it] += 1;
                    local_dest_rank[d] = r;
                    local_piece_base[d] = piece_off0 + next_piece[it];
                }
                local_pieces[next_piece[it]] = piece;
                next_piece[it] += 1;
            }
            pieces.extend_from_slice(&local_pieces[..p]);
            dest_rank.extend_from_slice(&local_dest_rank[..d]);
            piece_base.extend_from_slice(&local_piece_base[..d]);

            // Per-slot covering read ranges, one per covered block: the
            // extents the vectorized read of this iteration services. For
            // single-block slots this is exactly `(read_lo, read_hi)`; a
            // merged multi-block slot gets one range per block so the
            // stride gaps (other aggregators' bytes) are never read.
            let mut p0 = 0usize;
            for &cnt in piece_count.iter().take(n_it) {
                blk_cov.clear();
                for piece in &local_pieces[p0..p0 + cnt] {
                    let b = (piece.extent.offset - dom.start) / dom.stride;
                    let (plo, phi) = (piece.extent.offset, piece.extent.end());
                    match blk_cov.iter_mut().find(|(bb, _, _)| *bb == b) {
                        Some((_, lo, hi)) => {
                            *lo = (*lo).min(plo);
                            *hi = (*hi).max(phi);
                        }
                        None => blk_cov.push((b, plo, phi)),
                    }
                }
                blk_cov.sort_unstable();
                ranges.extend(blk_cov.iter().map(|&(_, lo, hi)| (lo, hi - lo)));
                range_base.push(ranges.len());
                p0 += cnt;
            }

            // Source lists: walking this domain's destinations slot-major
            // visits each rank's chunks in (aggregator, iteration) order, so
            // appending per rank preserves the deterministic source order —
            // and records which destination entry the source's pieces live
            // under.
            let mut dd = 0usize;
            for (it, &c) in dest_count.iter().enumerate() {
                for _ in 0..c {
                    rank_sources[local_dest_rank[dd]].push((a, it, dest_off0 + dd));
                    dd += 1;
                }
            }

            for (it, &c) in piece_count.iter().enumerate() {
                if c > 0 {
                    active_iters.push(it);
                }
            }
            active_base.push(active_iters.len());
        }
        piece_base.push(pieces.len());

        let mut src_base = Vec::with_capacity(nprocs + 1);
        src_base.push(0usize);
        let total_sources = rank_sources.iter().map(Vec::len).sum();
        let mut sources = Vec::with_capacity(total_sources);
        let mut src_dest = Vec::with_capacity(total_sources);
        for per_rank in &rank_sources {
            for &(a, it, d) in per_rank {
                sources.push((a, it));
                src_dest.push(d);
            }
            src_base.push(sources.len());
        }

        Self {
            plan,
            index: Arc::new(ScheduleIndex {
                iter_base,
                active_base,
                active_iters,
                dest_base,
                dest_rank,
                piece_base,
                src_base,
                sources,
                src_dest,
                range_base,
            }),
            geom: Arc::new(ScheduleGeom {
                read_lo,
                read_hi,
                pieces,
                ranges,
            }),
        }
    }

    /// The plan this schedule was compiled from (or translated to).
    pub fn plan(&self) -> &CollectivePlan {
        &self.plan
    }

    /// Whether two schedules share the same compiled index tables (the
    /// shape-invariant half of the schedule) by `Arc` — true for cache
    /// hits and translations of one entry, false for independent compiles.
    /// Lets tests assert that cache sharing actually shared memory.
    pub fn shares_index_with(&self, other: &PlanSchedule) -> bool {
        Arc::ptr_eq(&self.index, &other.index)
    }

    /// The index in the aggregator list of rank `r`, if it aggregates.
    pub fn aggregator_index(&self, rank: usize) -> Option<usize> {
        self.plan.aggregator_index(rank)
    }

    /// The rank of aggregator `agg_idx`.
    pub fn aggregator_rank(&self, agg_idx: usize) -> usize {
        self.plan.aggregators[agg_idx]
    }

    /// Number of collective-buffer iterations of aggregator `agg_idx`.
    pub fn n_iterations(&self, agg_idx: usize) -> usize {
        self.index.iter_base[agg_idx + 1] - self.index.iter_base[agg_idx]
    }

    /// The file range `[lo, hi)` of iteration `iter` of `agg_idx`.
    pub fn chunk(&self, agg_idx: usize, iter: usize) -> (u64, u64) {
        self.plan.chunk(agg_idx, iter)
    }

    /// The iterations of `agg_idx` that contain requested bytes, ascending.
    pub fn active_iterations(&self, agg_idx: usize) -> &[usize] {
        let t = &self.index;
        &t.active_iters[t.active_base[agg_idx]..t.active_base[agg_idx + 1]]
    }

    /// Whether aggregator `agg_idx` has any work at all.
    pub fn is_active(&self, agg_idx: usize) -> bool {
        !self.active_iterations(agg_idx).is_empty()
    }

    /// The covering extent read in chunk `(agg_idx, iter)`, `None` if the
    /// chunk holds no requested bytes.
    pub fn read_range(&self, agg_idx: usize, iter: usize) -> Option<(u64, u64)> {
        let slot = self.index.iter_base[agg_idx] + iter;
        let (lo, hi) = (self.geom.read_lo[slot], self.geom.read_hi[slot]);
        (lo < hi).then_some((lo, hi))
    }

    /// The `(offset, len)` extents the vectorized read of chunk
    /// `(agg_idx, iter)` services — the covering range of each covered
    /// block holding requested bytes, ascending and disjoint. Empty when
    /// the chunk holds no requested bytes. Handing the whole list to one
    /// `read_multi`/`write_multi` call lets the file system merge
    /// object-contiguous stripes across consecutive blocks into single
    /// seek-charged runs.
    pub fn read_ranges(&self, agg_idx: usize, iter: usize) -> &[(u64, u64)] {
        let slot = self.index.iter_base[agg_idx] + iter;
        &self.geom.ranges[self.index.range_base[slot]..self.index.range_base[slot + 1]]
    }

    /// Calls `f` with the in-domain sub-ranges of iteration `iter` of
    /// `agg_idx`, one per covered block, ascending.
    pub fn chunk_blocks(&self, agg_idx: usize, iter: usize, f: impl FnMut(u64, u64)) {
        self.plan.chunk_blocks(agg_idx, iter, f)
    }

    /// The ranks receiving bytes from chunk `(agg_idx, iter)`, ascending.
    pub fn destinations(&self, agg_idx: usize, iter: usize) -> &[usize] {
        let t = &self.index;
        let slot = t.iter_base[agg_idx] + iter;
        &t.dest_rank[t.dest_base[slot]..t.dest_base[slot + 1]]
    }

    /// The pieces of chunk `(agg_idx, iter)` destined for `rank`, in file
    /// order. Empty if the rank takes nothing from the chunk.
    pub fn pieces_for(&self, agg_idx: usize, iter: usize, rank: usize) -> &[Piece] {
        let t = &self.index;
        let slot = t.iter_base[agg_idx] + iter;
        let dests = &t.dest_rank[t.dest_base[slot]..t.dest_base[slot + 1]];
        match dests.binary_search(&rank) {
            Ok(i) => {
                let d = t.dest_base[slot] + i;
                &self.geom.pieces[t.piece_base[d]..t.piece_base[d + 1]]
            }
            Err(_) => &[],
        }
    }

    /// Every destination of chunk `(agg_idx, iter)` with its piece slice,
    /// in ascending rank order — the aggregator hot loop, with no lookup
    /// at all.
    pub fn dests_with_pieces(
        &self,
        agg_idx: usize,
        iter: usize,
    ) -> impl Iterator<Item = (usize, &[Piece])> {
        let t = &*self.index;
        let g = &*self.geom;
        let slot = t.iter_base[agg_idx] + iter;
        (t.dest_base[slot]..t.dest_base[slot + 1]).map(move |d| {
            (
                t.dest_rank[d],
                &g.pieces[t.piece_base[d]..t.piece_base[d + 1]],
            )
        })
    }

    /// [`Self::dests_with_pieces`] restricted to destination ranks in
    /// `[lo, hi)` — the hierarchical engines' per-node view of a slot.
    /// Destination ranks ascend within a slot, so the restriction is a
    /// binary-searched sub-slice, not a filter: node leaders pre-size
    /// coalescing frames and enumerate their members' sections without
    /// touching the destinations outside their node.
    pub fn dests_with_pieces_in(
        &self,
        agg_idx: usize,
        iter: usize,
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = (usize, &[Piece])> {
        let t = &*self.index;
        let g = &*self.geom;
        let slot = t.iter_base[agg_idx] + iter;
        let (d0, d1) = (t.dest_base[slot], t.dest_base[slot + 1]);
        let dests = &t.dest_rank[d0..d1];
        let start = d0 + dests.partition_point(|&r| r < lo);
        let end = d0 + dests.partition_point(|&r| r < hi);
        (start..end).map(move |d| {
            (
                t.dest_rank[d],
                &g.pieces[t.piece_base[d]..t.piece_base[d + 1]],
            )
        })
    }

    /// All `(agg_idx, iter)` chunks holding bytes for `rank`, in
    /// deterministic (aggregator, iteration) order.
    pub fn sources_for(&self, rank: usize) -> &[(usize, usize)] {
        let t = &self.index;
        &t.sources[t.src_base[rank]..t.src_base[rank + 1]]
    }

    /// [`Self::sources_for`] with each source's piece slice attached — the
    /// receiver hot loop. Equivalent to calling [`Self::pieces_for`] per
    /// source, but reads the destination index recorded at compile time
    /// instead of re-searching the destination list.
    pub fn sources_with_pieces(
        &self,
        rank: usize,
    ) -> impl Iterator<Item = (usize, usize, &[Piece])> {
        let t = &*self.index;
        let g = &*self.geom;
        (t.src_base[rank]..t.src_base[rank + 1]).map(move |k| {
            let (a, it) = t.sources[k];
            let d = t.src_dest[k];
            (a, it, &g.pieces[t.piece_base[d]..t.piece_base[d + 1]])
        })
    }

    /// Translates this schedule to `new_requests`, which must be the
    /// compiled requests shifted so that the global minimum offset moves
    /// from `old_lo` to `new_lo` (same shape, same hints, same topology —
    /// the cache verifies all of this). The index tables are shared by
    /// `Arc` unchanged; only the offset-bearing geometry columns are
    /// rewritten. Much cheaper than a recompile: a flat copy-and-add with
    /// no scanning or branching.
    fn translate(&self, new_requests: Arc<Vec<OffsetList>>, old_lo: u64, new_lo: u64) -> Self {
        let shift = |x: u64| new_lo + (x - old_lo);
        let t = &*self.geom;
        let read_lo = t
            .read_lo
            .iter()
            .map(|&lo| if lo == u64::MAX { u64::MAX } else { shift(lo) })
            .collect();
        let read_hi = t
            .read_hi
            .iter()
            .map(|&hi| if hi == 0 { 0 } else { shift(hi) })
            .collect();
        let pieces = t
            .pieces
            .iter()
            .map(|p| Piece {
                extent: Extent {
                    offset: shift(p.extent.offset),
                    len: p.extent.len,
                },
                buf_offset: p.buf_offset,
            })
            .collect();
        let ranges = t.ranges.iter().map(|&(lo, len)| (shift(lo), len)).collect();
        // Domains may start before the global minimum offset (group-cyclic
        // domains anchor at period boundaries), so they shift by the signed
        // delta rather than through `shift`.
        let delta = new_lo as i64 - old_lo as i64;
        let plan = CollectivePlan {
            aggregators: self.plan.aggregators.clone(),
            domains: self.plan.domains.iter().map(|d| d.shifted(delta)).collect(),
            cb: self.plan.cb,
            requests: new_requests,
        };
        Self {
            plan,
            index: Arc::clone(&self.index),
            geom: Arc::new(ScheduleGeom {
                read_lo,
                read_hi,
                pieces,
                ranges,
            }),
        }
    }
}

/// How a [`PlanCache`] lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Requests were bitwise identical to a cached step: tables shared.
    Hit,
    /// Requests were a constant-offset shift of a cached step: tables
    /// translated.
    Translated,
    /// No reusable entry: compiled from scratch.
    Miss,
}

/// Counters of one cache's lifetime (or, when read through a
/// [`PlanSource`], of one holder's share of a shared cache's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Exact reuses (identical requests).
    pub hits: u64,
    /// Offset-translation reuses.
    pub translations: u64,
    /// Full compiles.
    pub misses: u64,
    /// Exact reuses of an entry *another job* compiled — the subset of
    /// `hits` a job could never have gotten from a private cache.
    pub cross_job_hits: u64,
    /// Offset-translation reuses of another job's entry — the subset of
    /// `translations` owed to cache sharing.
    pub cross_job_translations: u64,
    /// Tasks whose I/O was served through a fused (batched) schedule —
    /// the numerator of the batch-amortization ratio. Bumped by the
    /// task-fusion layer, once per task folded into a shared sweep.
    pub fused_tasks: u64,
}

impl PlanCacheStats {
    /// Total lookups (hits + translations + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.translations + self.misses
    }

    /// Fraction of lookups satisfied without a fresh compile (0.0 when no
    /// lookups have happened).
    pub fn reuse_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.hits + self.translations) as f64 / lookups as f64
        }
    }

    /// Fraction of lookups satisfied by *another job's* entry (0.0 when no
    /// lookups have happened) — the benefit attributable purely to sharing
    /// the cache across jobs.
    pub fn cross_job_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.cross_job_hits + self.cross_job_translations) as f64 / lookups as f64
        }
    }

    /// Tasks served per compiled schedule: how far each full compile was
    /// amortized by request fusion (0.0 before any task was fused). A
    /// batch of 10k tasks that needed one compile reports 10000.0.
    pub fn amortization(&self) -> f64 {
        if self.fused_tasks == 0 {
            0.0
        } else {
            self.fused_tasks as f64 / self.misses.max(1) as f64
        }
    }

    /// Counts one lookup satisfied by `outcome` (`cross`: from another
    /// job's entry).
    fn count(&mut self, outcome: CacheOutcome, cross: bool) {
        match outcome {
            CacheOutcome::Hit => {
                self.hits += 1;
                self.cross_job_hits += u64::from(cross);
            }
            CacheOutcome::Translated => {
                self.translations += 1;
                self.cross_job_translations += u64::from(cross);
            }
            CacheOutcome::Miss => self.misses += 1,
        }
    }

    /// Element-wise sum, for folding per-rank or per-job stats.
    pub fn merge(&self, other: &PlanCacheStats) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits + other.hits,
            translations: self.translations + other.translations,
            misses: self.misses + other.misses,
            cross_job_hits: self.cross_job_hits + other.cross_job_hits,
            cross_job_translations: self.cross_job_translations + other.cross_job_translations,
            fused_tasks: self.fused_tasks + other.fused_tasks,
        }
    }
}

/// The key a compiled schedule is filed under: the *shape* of the request
/// set — every rank's extents normalized to the global minimum offset —
/// plus everything else the plan depends on. Two steps of a timestep sweep
/// share a key exactly when one is a constant shift of the other.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    shape_hash: u64,
    nprocs: usize,
    topology: Topology,
    hints: Hints,
}

impl CacheKey {
    fn new(table: &RequestTable, topology: &Topology, nprocs: usize, hints: &Hints) -> Self {
        Self {
            shape_hash: table.shape_hash,
            nprocs,
            topology: topology.clone(),
            hints: hints.clone(),
        }
    }
}

/// One plan-cache lookup: the schedule and how the lookup was satisfied.
pub(crate) struct PlanLookup {
    pub(crate) schedule: PlanSchedule,
    pub(crate) outcome: CacheOutcome,
    /// Whether the reused entry was another job's.
    pub(crate) cross: bool,
}

struct CacheEntry {
    /// The requests the schedule was compiled from, for verification.
    requests: Arc<Vec<OffsetList>>,
    /// Their global minimum offset (0 for an all-empty set).
    lo: u64,
    /// The job that paid for the compile (0 for untagged lookups); a later
    /// lookup from a different job counts as a cross-job reuse.
    origin: u64,
    schedule: PlanSchedule,
}

/// A cache of compiled schedules for iterative sweeps.
///
/// Keys combine a request-shape fingerprint with the hints, rank count,
/// and topology (anything that changes the partition or chunking). On a
/// key match the requests are verified extent-by-extent against the cached
/// step, so a fingerprint collision degrades to a recompile, never to a
/// wrong schedule. The translation fast path additionally requires the
/// offset delta to be a multiple of [`Hints::translation_period`] — domain
/// partitioning rounds *absolute* offsets (alignment multiples, stripe
/// boundaries, round-robin periods), so only such shifts move the
/// partition rigidly.
#[derive(Default)]
pub struct PlanCache {
    entries: HashMap<CacheKey, CacheEntry>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Returns the compiled schedule for `requests`, reusing or
    /// translating a cached one when the request shape matches a previous
    /// step. Deterministic across ranks: every rank makes the identical
    /// decision from the identical inputs.
    pub fn get_or_compile(
        &mut self,
        requests: impl Into<Arc<Vec<OffsetList>>>,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
    ) -> PlanSchedule {
        let (schedule, _) = self.get_or_compile_traced(requests, topology, nprocs, hints);
        schedule
    }

    /// [`get_or_compile`](Self::get_or_compile), also reporting how the
    /// lookup was satisfied.
    pub fn get_or_compile_traced(
        &mut self,
        requests: impl Into<Arc<Vec<OffsetList>>>,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
    ) -> (PlanSchedule, CacheOutcome) {
        let (schedule, outcome, _) = self.get_or_compile_tagged(requests, topology, nprocs, hints, 0);
        (schedule, outcome)
    }

    /// [`get_or_compile_traced`](Self::get_or_compile_traced) on behalf of
    /// job `job`: a reuse of an entry compiled by a *different* job
    /// additionally bumps the cross-job counters. The third return is true
    /// exactly for such cross-job reuses. Untagged lookups use job 0.
    pub fn get_or_compile_tagged(
        &mut self,
        requests: impl Into<Arc<Vec<OffsetList>>>,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
        job: u64,
    ) -> (PlanSchedule, CacheOutcome, bool) {
        let l = self.lookup(&RequestTable::new(requests), topology, nprocs, hints, job);
        (l.schedule, l.outcome, l.cross)
    }

    /// The lookup behind every entry point, on a table whose global
    /// minimum and shape fingerprint are already known.
    pub(crate) fn lookup(
        &mut self,
        table: &RequestTable,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
        job: u64,
    ) -> PlanLookup {
        let (requests, lo) = (&table.requests, table.global_lo);
        let key = CacheKey::new(table, topology, nprocs, hints);
        if let Some(entry) = self.entries.get(&key) {
            if same_shape(&entry.requests, entry.lo, requests, lo) {
                let cross = entry.origin != job;
                if lo == entry.lo {
                    // Same shape at the same offset: bitwise-equal requests.
                    self.stats.count(CacheOutcome::Hit, cross);
                    let mut schedule = entry.schedule.clone();
                    schedule.plan.requests = Arc::clone(requests);
                    return PlanLookup {
                        schedule,
                        outcome: CacheOutcome::Hit,
                        cross,
                    };
                }
                // The partition is translation-equivariant only for shifts
                // that are multiples of its period: the alignment for even
                // domains, lcm(alignment, stripe) for stripe-aligned, the
                // full round-robin period for group-cyclic.
                let period = hints.translation_period();
                let delta_aligned =
                    (lo as i128 - entry.lo as i128).rem_euclid(period as i128) == 0;
                if delta_aligned {
                    self.stats.count(CacheOutcome::Translated, cross);
                    let schedule = entry.schedule.translate(Arc::clone(requests), entry.lo, lo);
                    return PlanLookup {
                        schedule,
                        outcome: CacheOutcome::Translated,
                        cross,
                    };
                }
            }
        }
        let plan = CollectivePlan::build(Arc::clone(requests), topology, nprocs, hints);
        let schedule = PlanSchedule::compile(plan);
        let lookup = PlanLookup {
            schedule,
            outcome: CacheOutcome::Miss,
            cross: false,
        };
        self.record(key, table, job, &lookup);
        lookup
    }

    /// Records `lookup`, run against a cache in this cache's state, as if
    /// it had run here: the same counters and, on a miss, the same new
    /// entry (sharing the compiled schedule).
    fn record(&mut self, key: CacheKey, table: &RequestTable, job: u64, lookup: &PlanLookup) {
        self.stats.count(lookup.outcome, lookup.cross);
        if lookup.outcome == CacheOutcome::Miss {
            self.entries.insert(
                key,
                CacheEntry {
                    requests: Arc::clone(&table.requests),
                    lo: table.global_lo,
                    origin: job,
                    schedule: lookup.schedule.clone(),
                },
            );
        }
    }

    /// Credits `tasks` fused tasks to this cache's amortization counter
    /// (see [`PlanCacheStats::fused_tasks`]).
    pub fn note_fused_tasks(&mut self, tasks: u64) {
        self.stats.fused_tasks += tasks;
    }
}

/// A process-wide, thread-safe [`PlanCache`] shared by concurrent jobs.
///
/// Jobs issuing the same hyperslab shapes (same rank count, topology, and
/// hints) hit one compiled [`PlanSchedule`] no matter which job compiled
/// it — the cache key deliberately excludes file identity, so two jobs
/// sweeping different files with the same striping hit exactly. Lookups
/// are tagged with a job id; reuses of another job's entry are counted
/// separately (see [`PlanCacheStats::cross_job_hits`]).
#[derive(Default)]
pub struct SharedPlanCache {
    inner: Mutex<PlanCache>,
}

impl SharedPlanCache {
    /// An empty shared cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tagged lookup on behalf of `job` (see
    /// [`PlanCache::get_or_compile_tagged`]). One lock acquisition per
    /// lookup; the returned schedule shares its compiled tables with the
    /// cache via `Arc`, so no copying happens under the lock on a hit.
    pub fn get_or_compile_tagged(
        &self,
        requests: impl Into<Arc<Vec<OffsetList>>>,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
        job: u64,
    ) -> (PlanSchedule, CacheOutcome, bool) {
        let l = self.lookup(&RequestTable::new(requests), topology, nprocs, hints, job);
        (l.schedule, l.outcome, l.cross)
    }

    fn lookup(
        &self,
        table: &RequestTable,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
        job: u64,
    ) -> PlanLookup {
        self.inner
            .lock()
            .expect("a lookup panicked while holding the plan cache")
            .lookup(table, topology, nprocs, hints, job)
    }

    /// Counts a reuse a lookup would have made without running it.
    fn count(&self, outcome: CacheOutcome, cross: bool) {
        self.inner
            .lock()
            .expect("a lookup panicked while holding the plan cache")
            .stats
            .count(outcome, cross);
    }

    /// Lifetime counters over all jobs.
    pub fn stats(&self) -> PlanCacheStats {
        self.inner.lock().unwrap().stats()
    }

    /// Credits `tasks` fused tasks to the shared amortization counter.
    pub fn note_fused_tasks(&self, tasks: u64) {
        self.inner.lock().unwrap().note_fused_tasks(tasks);
    }
}

/// Where an engine run gets its compiled schedules from.
///
/// Threading this through the engines lets one code path serve all three
/// caching regimes: no cache (one-shot runs), a per-run local cache (an
/// iterative sweep), or the process-wide [`SharedPlanCache`] of the
/// multi-job service. The `Shared` variant carries per-holder `seen`
/// counters so each job can report its own cache experience even though
/// the cache itself is shared.
pub enum PlanSource<'a> {
    /// Compile fresh on every lookup; nothing is cached.
    Fresh,
    /// A caller-owned cache spanning one run or sweep.
    Local(&'a mut PlanCache),
    /// A process-wide cache shared across jobs.
    Shared {
        /// The shared cache.
        cache: &'a SharedPlanCache,
        /// The id lookups are tagged with.
        job: u64,
        /// What this holder observed: its own hits/translations/misses,
        /// with the cross-job subsets filled in.
        seen: PlanCacheStats,
    },
}

impl<'a> PlanSource<'a> {
    /// A source for a job tagged `job` drawing on `cache`, with zeroed
    /// per-holder counters.
    pub fn shared(cache: &'a SharedPlanCache, job: u64) -> Self {
        PlanSource::Shared {
            cache,
            job,
            seen: PlanCacheStats::default(),
        }
    }

    /// Returns the compiled schedule for `requests` from this source.
    /// Deterministic across ranks for `Fresh` and `Local`; for `Shared`
    /// the *schedule* is still rank-deterministic (all ranks compute the
    /// same tables or share the same entry) though which rank's lookup
    /// populates the cache first is not. The engines look up once per
    /// world instead, through [`exchange_and_plan`](crate::exchange::exchange_and_plan).
    pub fn get(
        &mut self,
        requests: impl Into<Arc<Vec<OffsetList>>>,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
    ) -> PlanSchedule {
        self.lookup(&RequestTable::new(requests), topology, nprocs, hints)
            .schedule
    }

    /// Looks `table` up in this source, counting the outcome.
    pub(crate) fn lookup(
        &mut self,
        table: &RequestTable,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
    ) -> PlanLookup {
        match self {
            PlanSource::Fresh => {
                let plan =
                    CollectivePlan::build(Arc::clone(&table.requests), topology, nprocs, hints);
                PlanLookup {
                    schedule: PlanSchedule::compile(plan),
                    outcome: CacheOutcome::Miss,
                    cross: false,
                }
            }
            PlanSource::Local(cache) => cache.lookup(table, topology, nprocs, hints, 0),
            PlanSource::Shared { cache, job, seen } => {
                let l = cache.lookup(table, topology, nprocs, hints, *job);
                seen.count(l.outcome, l.cross);
                l
            }
        }
    }

    /// Records in this source the outcome its own lookup of `table` would
    /// have had, given that another rank ran `lookup` first against an
    /// equivalent source. A `Local` cache ends in the state its own lookup
    /// would have left. On a `Shared` cache the first lookup left its
    /// entry behind, so a compile there is a (same-job) hit here, and a
    /// hit or a translation repeats as it was.
    pub(crate) fn replay(
        &mut self,
        table: &RequestTable,
        topology: &Topology,
        nprocs: usize,
        hints: &Hints,
        lookup: &PlanLookup,
    ) {
        match self {
            PlanSource::Fresh => {}
            PlanSource::Local(cache) => cache.record(
                CacheKey::new(table, topology, nprocs, hints),
                table,
                0,
                lookup,
            ),
            PlanSource::Shared { cache, seen, .. } => {
                let outcome = match lookup.outcome {
                    CacheOutcome::Miss => CacheOutcome::Hit,
                    reuse => reuse,
                };
                seen.count(outcome, lookup.cross);
                cache.count(outcome, lookup.cross);
            }
        }
    }

    /// Credits `tasks` fused tasks served through this source's schedules:
    /// `Local` bumps the cache's lifetime counter, `Shared` bumps both the
    /// holder's `seen` counters and the shared cache's totals (so folded
    /// per-holder stats still partition the shared totals), `Fresh` is a
    /// no-op (nothing was amortized).
    pub fn note_fused_tasks(&mut self, tasks: u64) {
        match self {
            PlanSource::Fresh => {}
            PlanSource::Local(cache) => cache.note_fused_tasks(tasks),
            PlanSource::Shared { cache, seen, .. } => {
                seen.fused_tasks += tasks;
                cache.note_fused_tasks(tasks);
            }
        }
    }

    /// The counters this holder observed: the local cache's lifetime stats
    /// for `Local`, the per-holder `seen` counters for `Shared`, zeros for
    /// `Fresh`.
    pub fn seen(&self) -> PlanCacheStats {
        match self {
            PlanSource::Fresh => PlanCacheStats::default(),
            PlanSource::Local(cache) => cache.stats(),
            PlanSource::Shared { seen, .. } => *seen,
        }
    }
}

/// Hashes every rank's extents relative to `lo`, so two translated steps
/// fingerprint identically.
pub(crate) fn shape_fingerprint(requests: &[OffsetList], lo: u64) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    requests.len().hash(&mut h);
    for r in requests {
        0xD1Du64.hash(&mut h); // rank separator
        for e in r.extents() {
            (e.offset - lo).hash(&mut h);
            e.len.hash(&mut h);
        }
    }
    h.finish()
}

/// Exact shape comparison (fingerprints can collide): every rank must have
/// the same extents relative to the respective global minima.
fn same_shape(a: &[OffsetList], a_lo: u64, b: &[OffsetList], b_lo: u64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.extents().len() == rb.extents().len()
                && ra.extents().iter().zip(rb.extents()).all(|(ea, eb)| {
                    ea.offset - a_lo == eb.offset - b_lo && ea.len == eb.len
                })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use crate::hints::{DomainPartition, Striping};

    fn hints(cb: u64) -> Hints {
        Hints {
            cb_buffer_size: cb,
            aggregators_per_node: 1,
            align_domains_to: None,
            ..Hints::default()
        }
    }

    fn partition_from(idx: usize) -> DomainPartition {
        [
            DomainPartition::Even,
            DomainPartition::StripeAligned,
            DomainPartition::GroupCyclic,
        ][idx]
    }

    fn group_cyclic_hints(cb: u64, unit: u64, factor: usize) -> Hints {
        Hints {
            domain_partition: DomainPartition::GroupCyclic,
            striping: Some(Striping { unit, factor }),
            ..hints(cb)
        }
    }

    /// Compares every answer of `sched` against the query-based oracle.
    fn assert_matches_oracle(plan: &CollectivePlan, sched: &PlanSchedule) {
        let naggs = plan.aggregators.len();
        for a in 0..naggs {
            assert_eq!(sched.n_iterations(a), plan.n_iterations(a), "n_iterations({a})");
            assert_eq!(
                sched.active_iterations(a),
                plan.active_iterations(a).as_slice(),
                "active_iterations({a})"
            );
            for it in 0..plan.n_iterations(a) {
                assert_eq!(sched.read_range(a, it), plan.read_range(a, it), "read_range({a},{it})");
                assert_eq!(
                    sched.read_ranges(a, it),
                    plan.read_ranges(a, it).as_slice(),
                    "read_ranges({a},{it})"
                );
                assert_eq!(
                    sched.destinations(a, it),
                    plan.destinations(a, it).as_slice(),
                    "destinations({a},{it})"
                );
                for rank in 0..plan.requests.len() {
                    assert_eq!(
                        sched.pieces_for(a, it, rank),
                        plan.pieces_for(a, it, rank).as_slice(),
                        "pieces_for({a},{it},{rank})"
                    );
                }
                let from_iter: Vec<(usize, &[Piece])> = sched.dests_with_pieces(a, it).collect();
                let dests = sched.destinations(a, it);
                assert_eq!(from_iter.len(), dests.len());
                for ((r, ps), &d) in from_iter.iter().zip(dests) {
                    assert_eq!(*r, d);
                    assert_eq!(*ps, sched.pieces_for(a, it, d));
                }
                // Every [lo, hi) window of the rank space must slice the
                // full destination list exactly.
                let nprocs = plan.requests.len();
                for lo in 0..=nprocs {
                    for hi in lo..=nprocs {
                        let windowed: Vec<(usize, &[Piece])> =
                            sched.dests_with_pieces_in(a, it, lo, hi).collect();
                        let expected: Vec<(usize, &[Piece])> = from_iter
                            .iter()
                            .filter(|(r, _)| (lo..hi).contains(r))
                            .cloned()
                            .collect();
                        assert_eq!(windowed, expected, "dests_with_pieces_in({a},{it},{lo},{hi})");
                    }
                }
            }
        }
        for rank in 0..plan.requests.len() {
            assert_eq!(
                sched.sources_for(rank),
                plan.sources_for(rank).as_slice(),
                "sources_for({rank})"
            );
            let with_pieces: Vec<(usize, usize, &[Piece])> =
                sched.sources_with_pieces(rank).collect();
            assert_eq!(with_pieces.len(), sched.sources_for(rank).len());
            for ((a, it, ps), &(oa, oit)) in
                with_pieces.iter().zip(sched.sources_for(rank))
            {
                assert_eq!((*a, *it), (oa, oit));
                assert_eq!(
                    *ps,
                    plan.pieces_for(*a, *it, rank).as_slice(),
                    "sources_with_pieces({rank}) at ({a},{it})"
                );
            }
        }
    }

    fn interleaved(nprocs: usize, pieces: u64, len: u64) -> Vec<OffsetList> {
        (0..nprocs as u64)
            .map(|r| {
                OffsetList::new(
                    (0..pieces)
                        .map(|k| Extent {
                            offset: r * len + k * len * nprocs as u64,
                            len,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn compiled_matches_oracle_on_interleaved_pattern() {
        let topo = Topology::new(2, 2);
        let reqs = interleaved(4, 20, 10);
        let plan = CollectivePlan::build(reqs, &topo, 4, &hints(64));
        let sched = PlanSchedule::compile(plan.clone());
        assert_matches_oracle(&plan, &sched);
    }

    #[test]
    fn compiled_matches_oracle_with_empty_ranks_and_holes() {
        let topo = Topology::new(1, 4);
        let reqs = vec![
            OffsetList::empty(),
            OffsetList::new(vec![
                Extent { offset: 10, len: 5 },
                Extent { offset: 900, len: 30 },
            ]),
            OffsetList::empty(),
            OffsetList::new(vec![Extent { offset: 500, len: 1 }]),
        ];
        let plan = CollectivePlan::build(reqs, &topo, 4, &hints(100));
        let sched = PlanSchedule::compile(plan.clone());
        assert_matches_oracle(&plan, &sched);
    }

    #[test]
    fn compiled_matches_oracle_on_empty_request_set() {
        let topo = Topology::new(1, 2);
        let plan = CollectivePlan::build(
            vec![OffsetList::empty(), OffsetList::empty()],
            &topo,
            2,
            &hints(64),
        );
        let sched = PlanSchedule::compile(plan.clone());
        assert_matches_oracle(&plan, &sched);
        assert!(sched.sources_for(0).is_empty());
    }

    #[test]
    fn compiled_matches_oracle_group_cyclic() {
        let topo = Topology::new(2, 2);
        let reqs = interleaved(4, 20, 10);
        let plan = CollectivePlan::build(reqs, &topo, 4, &group_cyclic_hints(16, 16, 4));
        assert!(plan.domains.iter().any(|d| !d.is_contiguous()));
        let sched = PlanSchedule::compile(plan.clone());
        assert_matches_oracle(&plan, &sched);
    }

    #[test]
    fn compiled_matches_oracle_group_cyclic_sparse() {
        let topo = Topology::new(1, 4);
        let reqs = vec![
            OffsetList::empty(),
            OffsetList::new(vec![
                Extent { offset: 13, len: 5 },
                Extent { offset: 900, len: 130 },
            ]),
            OffsetList::empty(),
            OffsetList::new(vec![Extent { offset: 500, len: 1 }]),
        ];
        let plan = CollectivePlan::build(reqs, &topo, 4, &group_cyclic_hints(32, 64, 3));
        let sched = PlanSchedule::compile(plan.clone());
        assert_matches_oracle(&plan, &sched);
    }

    #[test]
    fn cache_hits_on_identical_requests() {
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 8, 16);
        let mut cache = PlanCache::new();
        let (s1, o1) = cache.get_or_compile_traced(reqs.clone(), &topo, 2, &hints(64));
        let (s2, o2) = cache.get_or_compile_traced(reqs, &topo, 2, &hints(64));
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&s1.index, &s2.index), "hit must share index tables");
        assert!(Arc::ptr_eq(&s1.geom, &s2.geom), "hit must share geometry tables");
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 1,
                translations: 0,
                misses: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn shared_cache_counts_cross_job_reuse() {
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 8, 16);
        let shared = SharedPlanCache::new();
        // Job 1 compiles; its own re-lookup is a plain (same-job) hit.
        let (s1, o1, c1) = shared.get_or_compile_tagged(reqs.clone(), &topo, 2, &hints(64), 1);
        let (_, o2, c2) = shared.get_or_compile_tagged(reqs.clone(), &topo, 2, &hints(64), 1);
        assert_eq!((o1, c1), (CacheOutcome::Miss, false));
        assert_eq!((o2, c2), (CacheOutcome::Hit, false));
        // Job 2 issuing the same shape reuses job 1's entry: a cross-job hit.
        let (s3, o3, c3) = shared.get_or_compile_tagged(reqs.clone(), &topo, 2, &hints(64), 2);
        assert_eq!((o3, c3), (CacheOutcome::Hit, true));
        assert!(s1.shares_index_with(&s3), "cross-job hit must share one index");
        // Job 3 issuing a period-aligned shift of the shape translates it.
        let shifted: Vec<OffsetList> = reqs
            .iter()
            .map(|r| {
                OffsetList::new(
                    r.extents()
                        .iter()
                        .map(|e| Extent {
                            offset: e.offset + 4096,
                            len: e.len,
                        })
                        .collect(),
                )
            })
            .collect();
        let (s4, o4, c4) = shared.get_or_compile_tagged(shifted, &topo, 2, &hints(64), 3);
        assert_eq!((o4, c4), (CacheOutcome::Translated, true));
        assert!(s1.shares_index_with(&s4), "translation must share one index");
        let stats = shared.stats();
        assert_eq!(
            stats,
            PlanCacheStats {
                hits: 2,
                translations: 1,
                misses: 1,
                cross_job_hits: 1,
                cross_job_translations: 1,
                fused_tasks: 0,
            }
        );
        assert!((stats.reuse_rate() - 0.75).abs() < 1e-12);
        assert!((stats.cross_job_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn plan_source_tracks_per_holder_stats() {
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 8, 16);
        let shared = SharedPlanCache::new();
        let mut job_a = PlanSource::shared(&shared, 7);
        let mut job_b = PlanSource::shared(&shared, 8);
        let sa = job_a.get(reqs.clone(), &topo, 2, &hints(64));
        let sb = job_b.get(reqs.clone(), &topo, 2, &hints(64));
        assert!(sa.shares_index_with(&sb));
        // Each holder saw its own half of the story.
        assert_eq!(job_a.seen().misses, 1);
        assert_eq!(job_a.seen().hits, 0);
        assert_eq!(job_b.seen().hits, 1);
        assert_eq!(job_b.seen().cross_job_hits, 1);
        assert_eq!(job_b.seen().misses, 0);
        // The cache's global stats are the union.
        assert_eq!(shared.stats(), job_a.seen().merge(&job_b.seen()));
        // Fresh sources cache nothing and see nothing.
        let mut fresh = PlanSource::Fresh;
        let sf = fresh.get(reqs, &topo, 2, &hints(64));
        assert!(!sf.shares_index_with(&sa), "fresh compile shares nothing");
        assert_eq!(fresh.seen(), PlanCacheStats::default());
    }

    #[test]
    fn fused_task_credits_partition_and_amortize() {
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 8, 16);
        let shared = SharedPlanCache::new();
        let mut job_a = PlanSource::shared(&shared, 1);
        let mut job_b = PlanSource::shared(&shared, 2);
        let _ = job_a.get(reqs.clone(), &topo, 2, &hints(64));
        job_a.note_fused_tasks(600);
        let _ = job_b.get(reqs, &topo, 2, &hints(64));
        job_b.note_fused_tasks(400);
        // Per-holder credits partition the shared totals (Eq over stats).
        assert_eq!(shared.stats(), job_a.seen().merge(&job_b.seen()));
        assert_eq!(shared.stats().fused_tasks, 1000);
        // One compile served every task: amortization is tasks/compile.
        assert!((shared.stats().amortization() - 1000.0).abs() < 1e-12);
        // Fresh sources amortize nothing.
        assert_eq!(PlanCacheStats::default().amortization(), 0.0);
    }

    #[test]
    fn shared_cache_concurrent_lookups_converge() {
        // Many threads race the same shape into the shared cache: every
        // lookup after the first few misses must reuse, totals must add
        // up, and all returned schedules answer identically.
        use std::sync::Arc as StdArc;
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 8, 16);
        let shared = StdArc::new(SharedPlanCache::new());
        let mut handles = Vec::new();
        for job in 0..8u64 {
            let shared = StdArc::clone(&shared);
            let reqs = reqs.clone();
            let topo = topo.clone();
            handles.push(std::thread::spawn(move || {
                let mut src = PlanSource::shared(&shared, job);
                let s = src.get(reqs, &topo, 2, &hints(64));
                let shape = (s.sources_for(0).len(), s.sources_for(1).len());
                (shape, src.seen())
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let shape0 = results[0].0;
        assert!(results.iter().all(|(s, _)| *s == shape0));
        let folded = results
            .iter()
            .fold(PlanCacheStats::default(), |acc, (_, s)| acc.merge(s));
        assert_eq!(folded, shared.stats());
        assert_eq!(folded.lookups(), 8);
        // Exactly one job's compile survives in the cache; with unlucky
        // interleaving several may *run*, but at least one lookup later
        // than the first must have reused (8 threads, 1 entry).
        assert!(folded.misses >= 1);
        assert!(folded.hits + folded.misses == 8);
        assert!(folded.cross_job_hits <= folded.hits);
    }

    #[test]
    fn cache_translates_shifted_requests() {
        let topo = Topology::new(2, 2);
        let base = interleaved(4, 12, 8);
        let delta = 4096u64;
        let shifted: Vec<OffsetList> = base
            .iter()
            .map(|r| {
                OffsetList::new(
                    r.extents()
                        .iter()
                        .map(|e| Extent {
                            offset: e.offset + delta,
                            len: e.len,
                        })
                        .collect(),
                )
            })
            .collect();
        let mut cache = PlanCache::new();
        let (compiled, o1) = cache.get_or_compile_traced(base, &topo, 4, &hints(64));
        let (translated, o2) = cache.get_or_compile_traced(shifted.clone(), &topo, 4, &hints(64));
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Translated);
        // Translation shares the shape-invariant index tables outright...
        assert!(
            Arc::ptr_eq(&compiled.index, &translated.index),
            "translation must share index tables"
        );
        // ...and the whole schedule must be bit-identical to a fresh compile.
        let fresh_plan = CollectivePlan::build(shifted, &topo, 4, &hints(64));
        let fresh = PlanSchedule::compile(fresh_plan.clone());
        assert_eq!(translated.plan.domains, fresh.plan.domains);
        assert_eq!(*translated.index, *fresh.index);
        assert_eq!(*translated.geom, *fresh.geom);
        assert_matches_oracle(&fresh_plan, &translated);
    }

    #[test]
    fn cache_refuses_unaligned_translation() {
        // With domain alignment, a shift that is not an alignment multiple
        // changes the partition — the cache must recompile.
        let topo = Topology::new(1, 2);
        let h = Hints {
            align_domains_to: Some(64),
            ..hints(64)
        };
        let base = interleaved(2, 6, 16);
        let shifted: Vec<OffsetList> = base
            .iter()
            .map(|r| {
                OffsetList::new(
                    r.extents()
                        .iter()
                        .map(|e| Extent {
                            offset: e.offset + 33, // not a multiple of 64
                            len: e.len,
                        })
                        .collect(),
                )
            })
            .collect();
        let mut cache = PlanCache::new();
        let (_, o1) = cache.get_or_compile_traced(base, &topo, 2, &h);
        let (sched, o2) = cache.get_or_compile_traced(shifted.clone(), &topo, 2, &h);
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::Miss);
        let fresh_plan = CollectivePlan::build(shifted, &topo, 2, &h);
        assert_matches_oracle(&fresh_plan, &sched);
    }

    #[test]
    fn cache_distinguishes_hints() {
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 4, 8);
        let mut cache = PlanCache::new();
        let _ = cache.get_or_compile(reqs.clone(), &topo, 2, &hints(64));
        let (_, o) = cache.get_or_compile_traced(reqs, &topo, 2, &hints(128));
        assert_eq!(o, CacheOutcome::Miss);
    }

    #[test]
    fn cache_distinguishes_partition_strategies() {
        // Same requests under a different domain strategy must miss: the
        // strategy (and striping) are part of the hints, hence the key.
        let topo = Topology::new(1, 2);
        let reqs = interleaved(2, 4, 8);
        let mut cache = PlanCache::new();
        let _ = cache.get_or_compile(reqs.clone(), &topo, 2, &hints(64));
        let (_, o) = cache.get_or_compile_traced(reqs.clone(), &topo, 2, &group_cyclic_hints(64, 16, 2));
        assert_eq!(o, CacheOutcome::Miss);
        let (_, o) = cache.get_or_compile_traced(reqs, &topo, 2, &group_cyclic_hints(64, 16, 2));
        assert_eq!(o, CacheOutcome::Hit);
    }

    #[test]
    fn cache_translates_group_cyclic_by_full_periods() {
        let topo = Topology::new(2, 2);
        let h = group_cyclic_hints(16, 16, 4); // period 64
        let base = interleaved(4, 12, 8);
        let shift_by = |reqs: &[OffsetList], delta: u64| -> Vec<OffsetList> {
            reqs.iter()
                .map(|r| {
                    OffsetList::new(
                        r.extents()
                            .iter()
                            .map(|e| Extent {
                                offset: e.offset + delta,
                                len: e.len,
                            })
                            .collect(),
                    )
                })
                .collect()
        };
        let mut cache = PlanCache::new();
        let (compiled, o1) = cache.get_or_compile_traced(base.clone(), &topo, 4, &h);
        assert_eq!(o1, CacheOutcome::Miss);
        // A shift of 3 periods translates...
        let shifted = shift_by(&base, 3 * 64);
        let (translated, o2) = cache.get_or_compile_traced(shifted.clone(), &topo, 4, &h);
        assert_eq!(o2, CacheOutcome::Translated);
        assert!(Arc::ptr_eq(&compiled.index, &translated.index));
        let fresh = PlanSchedule::compile(CollectivePlan::build(shifted, &topo, 4, &h));
        assert_eq!(translated.plan.domains, fresh.plan.domains);
        assert_eq!(*translated.geom, *fresh.geom);
        // ...a mid-period shift does not (the slot assignment changes).
        let (_, o3) = cache.get_or_compile_traced(shift_by(&base, 24), &topo, 4, &h);
        assert_eq!(o3, CacheOutcome::Miss);
    }

    fn shift_by(reqs: &[OffsetList], delta: u64) -> Vec<OffsetList> {
        reqs.iter()
            .map(|r| {
                OffsetList::new(
                    r.extents()
                        .iter()
                        .map(|e| Extent {
                            offset: e.offset + delta,
                            len: e.len,
                        })
                        .collect(),
                )
            })
            .collect()
    }

    /// Shifts `reqs` by `delta` against a warmed cache and checks both the
    /// expected outcome and that whatever came back — translated or
    /// recompiled — matches a fresh compile exactly.
    fn check_shift(h: &Hints, delta: u64, expect: CacheOutcome) {
        let topo = Topology::new(1, 4);
        let base = interleaved(4, 10, 8);
        let mut cache = PlanCache::new();
        let (_, o1) = cache.get_or_compile_traced(base.clone(), &topo, 4, h);
        assert_eq!(o1, CacheOutcome::Miss);
        let shifted = shift_by(&base, delta);
        let (sched, o2) = cache.get_or_compile_traced(shifted.clone(), &topo, 4, h);
        assert_eq!(o2, expect, "shift {delta} under {:?}", h.effective_partition());
        let fresh_plan = CollectivePlan::build(shifted, &topo, 4, h);
        let fresh = PlanSchedule::compile(fresh_plan.clone());
        assert_eq!(sched.plan.domains, fresh.plan.domains);
        assert_eq!(*sched.index, *fresh.index);
        assert_eq!(*sched.geom, *fresh.geom);
        assert_matches_oracle(&fresh_plan, &sched);
    }

    #[test]
    fn cache_misses_on_non_period_shifts_for_every_strategy() {
        // Regression: a shift that is not a multiple of the strategy's
        // translation period must MISS — translating it would silently
        // move domain boundaries off their stripe/alignment grid. One
        // case per partition strategy, plus the translating counterpart
        // to show the gate is exactly the period.
        let aligned_even = Hints {
            align_domains_to: Some(64),
            ..hints(48)
        };
        check_shift(&aligned_even, 33, CacheOutcome::Miss);
        check_shift(&aligned_even, 128, CacheOutcome::Translated);

        let stripe_aligned = Hints {
            domain_partition: DomainPartition::StripeAligned,
            striping: Some(Striping { unit: 10, factor: 4 }),
            align_domains_to: Some(4),
            ..hints(48)
        };
        // Period lcm(4, 10) = 20: neither the stripe alone nor the
        // alignment alone preserves the partition.
        check_shift(&stripe_aligned, 10, CacheOutcome::Miss);
        check_shift(&stripe_aligned, 4, CacheOutcome::Miss);
        check_shift(&stripe_aligned, 20, CacheOutcome::Translated);

        let cyclic = Hints {
            align_domains_to: Some(4),
            ..group_cyclic_hints(48, 8, 3) // genuine group-cyclic, period lcm(4, 24) = 24
        };
        check_shift(&cyclic, 12, CacheOutcome::Miss);
        check_shift(&cyclic, 24, CacheOutcome::Translated);
    }

    #[test]
    fn cache_gate_follows_planner_fallback_to_stripe_aligned() {
        // The ISSUE's stripe-10/alignment-4 case: GroupCyclic is declared,
        // but unit 10 is not a multiple of alignment 4, so the planner
        // falls back to stripe-aligned-even partitioning. The gate must
        // use the *effective* strategy's period — lcm(4, 10) = 20, not the
        // group-cyclic lcm(4, unit * factor) — and must still miss on
        // shifts that are no multiple of it.
        let h = Hints {
            align_domains_to: Some(4),
            ..group_cyclic_hints(48, 10, 4)
        };
        assert_eq!(h.translation_period(), 20);
        check_shift(&h, 10, CacheOutcome::Miss);
        check_shift(&h, 14, CacheOutcome::Miss);
        check_shift(&h, 20, CacheOutcome::Translated);
        check_shift(&h, 60, CacheOutcome::Translated);
    }

    prop_compose! {
        /// Random per-rank requests: some ranks empty, sparse holes.
        fn arb_requests(max_ranks: usize)(
            per_rank in proptest::collection::vec(
                proptest::collection::vec((0u64..200, 0u64..40), 0..10),
                1..max_ranks + 1,
            ),
        ) -> Vec<OffsetList> {
            per_rank
                .into_iter()
                .map(|pairs| {
                    let mut pos = 0u64;
                    let mut extents = Vec::new();
                    for (gap, len) in pairs {
                        pos += gap + 1;
                        extents.push(Extent { offset: pos, len });
                        pos += len;
                    }
                    OffsetList::new(extents)
                })
                .collect()
        }
    }

    proptest! {
        #[test]
        fn prop_schedule_equals_oracle(
            reqs in arb_requests(5),
            cb in 1u64..300,
            nodes in 1usize..3,
            align in proptest::option::of(1u64..96),
            partition_idx in 0usize..3,
            striping in proptest::option::of((1u64..48, 1usize..6)),
        ) {
            let nprocs = reqs.len();
            let cores = nprocs.div_ceil(nodes);
            let topo = Topology::new(nodes, cores.max(1));
            let h = Hints {
                align_domains_to: align,
                domain_partition: partition_from(partition_idx),
                striping: striping.map(|(unit, factor)| Striping { unit, factor }),
                ..hints(cb)
            };
            let plan = CollectivePlan::build(reqs, &topo, nprocs, &h);
            let sched = PlanSchedule::compile(plan.clone());
            assert_matches_oracle(&plan, &sched);
        }

        #[test]
        fn prop_translated_equals_fresh(
            reqs in arb_requests(4),
            cb in 1u64..200,
            delta_steps in 1u64..50,
            align in proptest::option::of(1u64..64),
            partition_idx in 0usize..3,
            striping in proptest::option::of((1u64..32, 1usize..5)),
        ) {
            let nprocs = reqs.len();
            let topo = Topology::new(1, nprocs);
            let h = Hints {
                align_domains_to: align,
                domain_partition: partition_from(partition_idx),
                striping: striping.map(|(unit, factor)| Striping { unit, factor }),
                ..hints(cb)
            };
            // Keep the shift partition-safe: a multiple of the strategy's
            // translation period.
            let delta = delta_steps * h.translation_period();
            let shifted: Vec<OffsetList> = reqs
                .iter()
                .map(|r| OffsetList::new(
                    r.extents()
                        .iter()
                        .map(|e| Extent { offset: e.offset + delta, len: e.len })
                        .collect(),
                ))
                .collect();
            let mut cache = PlanCache::new();
            let _ = cache.get_or_compile(reqs, &topo, nprocs, &h);
            let (cached, outcome) =
                cache.get_or_compile_traced(shifted.clone(), &topo, nprocs, &h);
            let fresh_plan = CollectivePlan::build(shifted, &topo, nprocs, &h);
            let fresh = PlanSchedule::compile(fresh_plan.clone());
            prop_assert_eq!(cached.plan.domains.clone(), fresh.plan.domains.clone());
            prop_assert_eq!(&*cached.index, &*fresh.index);
            prop_assert_eq!(&*cached.geom, &*fresh.geom);
            assert_matches_oracle(&fresh_plan, &cached);
            // All-empty request sets shift to themselves (delta has nothing
            // to move), so they come back as exact hits.
            let all_empty = fresh_plan.requests.iter().all(|r| r.is_empty());
            if all_empty || delta == 0 {
                prop_assert_eq!(outcome, CacheOutcome::Hit);
            } else {
                prop_assert_eq!(outcome, CacheOutcome::Translated);
            }
        }
    }
}
