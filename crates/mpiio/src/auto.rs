//! Automatic strategy selection, ROMIO style.
//!
//! ROMIO only pays for two-phase collective buffering when the aggregate
//! access pattern warrants it: if every process's request occupies its own
//! disjoint region of the file (non-interleaved), each process can read
//! directly (with data sieving) and skip the shuffle entirely.
//! [`collective_read_auto`] makes that call from a cheap allgather of
//! per-rank bounding ranges — the same heuristic as ROMIO's
//! `romio_cb_read = automatic` — decided once per world.

use cc_mpi::elem::{decode_vec, encode_slice};
use cc_mpi::Comm;
use cc_pfs::{FileHandle, Pfs};

use crate::extent::OffsetList;
use crate::hints::Hints;
use crate::independent::{sieving_read, IndependentReport};
use crate::twophase::{collective_read, TwoPhaseReport};

/// Which strategy the automatic mode picked.
#[derive(Debug, Clone)]
pub enum AutoReport {
    /// The pattern interleaved: the two-phase engine ran.
    Collective(TwoPhaseReport),
    /// The pattern was disjoint: per-rank sieving reads ran.
    Independent(IndependentReport),
}

/// Whether any two ranks' bounding ranges overlap — the interleaving test
/// on `(min_offset, max_end)` pairs, `u64::MAX` marking empty requests.
pub fn ranges_interleave(bounds: &[(u64, u64)]) -> bool {
    let mut spans: Vec<(u64, u64)> = bounds
        .iter()
        .copied()
        .filter(|&(lo, hi)| lo < hi)
        .collect();
    spans.sort_unstable();
    spans.windows(2).any(|w| w[1].0 < w[0].1)
}

/// Collectively reads `my_request`, choosing two-phase collective
/// buffering for interleaved patterns and per-rank sieving reads for
/// disjoint ones. Must be called by all ranks; all ranks make the same
/// decision.
pub fn collective_read_auto(
    comm: &mut Comm,
    pfs: &Pfs,
    file: &FileHandle,
    my_request: &OffsetList,
    hints: &Hints,
) -> (Vec<u8>, AutoReport) {
    let mine = [
        my_request.min_offset().unwrap_or(u64::MAX),
        my_request.max_end().unwrap_or(0),
    ];
    let (interleaved, _) = comm.allgatherv_shared(&encode_slice(&mine), |blocks| {
        let bounds: Vec<(u64, u64)> = blocks
            .iter()
            .map(|b| decode_vec::<u64>(b))
            .map(|b| (b[0], b[1]))
            .filter(|&(lo, hi)| lo != u64::MAX && hi > 0)
            .collect();
        ranges_interleave(&bounds)
    });
    if *interleaved {
        let (bytes, rep) = collective_read(comm, pfs, file, my_request, hints);
        (bytes, AutoReport::Collective(rep))
    } else {
        let (bytes, rep) = sieving_read(comm, pfs, file, my_request, hints.cb_buffer_size);
        (bytes, AutoReport::Independent(rep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;
    use cc_model::ClusterModel;
    use cc_mpi::World;
    use cc_pfs::{MemBackend, StripeLayout};
    use std::sync::Arc;

    #[test]
    fn interleave_detection() {
        // Disjoint blocks.
        assert!(!ranges_interleave(&[(0, 10), (10, 20), (25, 30)]));
        // Overlapping spans.
        assert!(ranges_interleave(&[(0, 15), (10, 20)]));
        // One range inside another.
        assert!(ranges_interleave(&[(0, 100), (40, 60)]));
        // Empty and single.
        assert!(!ranges_interleave(&[]));
        assert!(!ranges_interleave(&[(5, 9)]));
    }

    fn run_auto(requests: &[OffsetList]) -> Vec<(Vec<u8>, AutoReport)> {
        let n = requests.len();
        let fs = Pfs::new(2, cc_model::DiskModel::lustre_like());
        let data: Vec<u8> = (0..4000).map(|i| (i % 251) as u8).collect();
        fs.create(
            "data",
            StripeLayout::round_robin(256, 2, 0, 2),
            Box::new(MemBackend::from_bytes(data)),
        );
        let fs = Arc::new(fs);
        let world = World::new(n, ClusterModel::test_tiny(n));
        let fs = &fs;
        world.run(move |comm| {
            let file = fs.open("data").expect("exists");
            collective_read_auto(
                comm,
                fs,
                &file,
                &requests[comm.rank()],
                &Hints::default(),
            )
        })
    }

    fn expected(request: &OffsetList) -> Vec<u8> {
        let mut out = Vec::new();
        for e in request.extents() {
            out.extend((e.offset..e.end()).map(|i| (i % 251) as u8));
        }
        out
    }

    #[test]
    fn disjoint_blocks_choose_independent() {
        let requests: Vec<OffsetList> = (0..4u64)
            .map(|r| OffsetList::contiguous(r * 1000, 1000))
            .collect();
        let results = run_auto(&requests);
        for (r, (bytes, rep)) in results.iter().enumerate() {
            assert_eq!(bytes, &expected(&requests[r]));
            assert!(
                matches!(rep, AutoReport::Independent(_)),
                "disjoint pattern should skip collective buffering"
            );
        }
    }

    #[test]
    fn interleaved_extents_choose_collective() {
        let requests: Vec<OffsetList> = (0..4u64)
            .map(|r| {
                OffsetList::new(
                    (0..10)
                        .map(|k| Extent {
                            offset: r * 100 + k * 400,
                            len: 100,
                        })
                        .collect(),
                )
            })
            .collect();
        let results = run_auto(&requests);
        for (r, (bytes, rep)) in results.iter().enumerate() {
            assert_eq!(bytes, &expected(&requests[r]));
            assert!(
                matches!(rep, AutoReport::Collective(_)),
                "interleaved pattern should use two-phase"
            );
        }
    }

    #[test]
    fn empty_requests_do_not_confuse_the_heuristic() {
        let mut requests = vec![OffsetList::empty(); 3];
        requests[0] = OffsetList::contiguous(0, 500);
        requests[2] = OffsetList::contiguous(500, 500);
        let results = run_auto(&requests);
        assert!(matches!(results[0].1, AutoReport::Independent(_)));
        assert_eq!(results[0].0, expected(&requests[0]));
        assert!(results[1].0.is_empty());
    }
}
