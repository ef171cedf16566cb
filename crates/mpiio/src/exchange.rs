//! Offset-list exchange.
//!
//! Before the two-phase protocol can partition file domains, every process
//! must know every other process's request — ROMIO does this with an
//! allgather of flattened offset/length lists, and so do we. The exchange
//! is a real (timed) collective, so its cost shows up in the totals.
//!
//! After the allgather every rank holds the same lists, so the decoded
//! table — and the plan derived from it — is replicated state. Rank
//! threads share memory, so both are computed once per world (see
//! `cc_mpi::slot`): one rank decodes the table and runs the plan lookup,
//! and every rank shares the results by `Arc`. The messages are exactly
//! those of a per-rank decode, so virtual time cannot tell.

use std::sync::Arc;

use cc_mpi::elem::{decode_vec, encode_slice};
use cc_mpi::Comm;

use crate::extent::OffsetList;
use crate::hints::Hints;
use crate::schedule::{shape_fingerprint, PlanLookup, PlanSchedule, PlanSource};

/// Every rank's request for one collective, decoded once per world.
#[derive(Debug)]
pub struct RequestTable {
    /// Every rank's request, indexed by rank. Shared with the plans built
    /// from it, so no rank ever copies the lists.
    pub(crate) requests: Arc<Vec<OffsetList>>,
    /// The global minimum requested offset (0 when every rank is empty).
    pub(crate) global_lo: u64,
    /// Fingerprint of the requests relative to `global_lo`: the shape part
    /// of the plan-cache key.
    pub(crate) shape_hash: u64,
}

impl RequestTable {
    /// A table over `requests`, with its plan-cache key parts.
    pub(crate) fn new(requests: impl Into<Arc<Vec<OffsetList>>>) -> Self {
        let requests = requests.into();
        let global_lo = requests
            .iter()
            .filter_map(|r| r.min_offset())
            .min()
            .unwrap_or(0);
        let shape_hash = shape_fingerprint(&requests, global_lo);
        Self {
            requests,
            global_lo,
            shape_hash,
        }
    }

    /// Decodes the blocks of the offset-list allgather.
    fn decode(blocks: &[&[u8]]) -> Self {
        Self::new(
            blocks
                .iter()
                .map(|b| OffsetList::from_words(&decode_vec::<u64>(b)))
                .collect::<Vec<_>>(),
        )
    }

    /// Every rank's request, indexed by rank.
    pub fn requests(&self) -> &Arc<Vec<OffsetList>> {
        &self.requests
    }
}

/// What one collective's exchange leaves in its slot: the decoded table
/// and, when the rank that decoded it was planning too, its plan lookup.
struct Exchanged {
    table: Arc<RequestTable>,
    lookup: Option<PlanLookup>,
}

/// Exchanges offset lists among all ranks; returns the table of every
/// rank's request, one `Arc` shared by the whole world. Must be called
/// collectively.
pub fn exchange_requests(comm: &mut Comm, mine: &OffsetList) -> Arc<RequestTable> {
    let (shared, _) = comm.allgatherv_shared(&encode_slice(&mine.to_words()), |blocks| Exchanged {
        table: Arc::new(RequestTable::decode(blocks)),
        lookup: None,
    });
    Arc::clone(&shared.table)
}

/// Exchanges the requests and looks up the collective's compiled schedule
/// in `plans`, once per world: the rank that decodes the table also runs
/// the lookup through its own source; every other rank clones the
/// schedule (O(1): the tables sit behind `Arc`s) and records in its source
/// the outcome its own lookup would have had. Every rank must pass an
/// equivalent source, which is what makes the lookup replicated state:
/// `Fresh` and `Local` sources decide identically on every rank, and a
/// `Shared` cache is one object. Must be called collectively.
pub fn exchange_and_plan(
    comm: &mut Comm,
    mine: &OffsetList,
    hints: &Hints,
    plans: &mut PlanSource<'_>,
) -> PlanSchedule {
    let topology = comm.model().topology.clone();
    let nprocs = comm.nprocs();
    let (shared, decoded_here) =
        comm.allgatherv_shared(&encode_slice(&mine.to_words()), |blocks| {
            let table = RequestTable::decode(blocks);
            let lookup = plans.lookup(&table, &topology, nprocs, hints);
            Exchanged {
                table: Arc::new(table),
                lookup: Some(lookup),
            }
        });
    match &shared.lookup {
        Some(lookup) => {
            if !decoded_here {
                plans.replay(&shared.table, &topology, nprocs, hints, lookup);
            }
            lookup.schedule.clone()
        }
        // The table was decoded by a rank that only exchanged (see
        // `exchange_requests`), so every planning rank looks up itself.
        None => {
            plans
                .lookup(&shared.table, &topology, nprocs, hints)
                .schedule
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extent::Extent;
    use cc_model::{ClusterModel, CollectiveMode, Topology};
    use cc_mpi::{CommStats, World};
    use proptest::prelude::*;

    /// The per-rank decode every rank ran before the table was shared:
    /// a typed allgather of the word lists, each decoded locally.
    fn exchange_oracle(comm: &mut Comm, mine: &OffsetList) -> Vec<OffsetList> {
        comm.allgatherv(&mine.to_words())
            .iter()
            .map(|w| OffsetList::from_words(w))
            .collect()
    }

    #[test]
    fn every_rank_sees_every_request() {
        let n = 4;
        let world = World::new(n, ClusterModel::test_tiny(n));
        let results = world.run(|comm| {
            let mine = OffsetList::new(vec![Extent {
                offset: comm.rank() as u64 * 100,
                len: 10 + comm.rank() as u64,
            }]);
            exchange_requests(comm, &mine)
        });
        for table in &results {
            assert!(Arc::ptr_eq(table, &results[0]), "one table per world");
            assert_eq!(table.requests.len(), n);
            assert_eq!(table.global_lo, 0);
            for (r, l) in table.requests.iter().enumerate() {
                assert_eq!(l.min_offset(), Some(r as u64 * 100));
                assert_eq!(l.total_bytes(), 10 + r as u64);
            }
        }
    }

    #[test]
    fn empty_requests_survive_exchange() {
        let world = World::new(3, ClusterModel::test_tiny(3));
        let results = world.run(|comm| {
            let mine = if comm.rank() == 1 {
                OffsetList::contiguous(50, 5)
            } else {
                OffsetList::empty()
            };
            exchange_requests(comm, &mine)
        });
        for table in &results {
            assert!(table.requests[0].is_empty());
            assert_eq!(table.requests[1].total_bytes(), 5);
            assert!(table.requests[2].is_empty());
            assert_eq!(table.global_lo, 50);
        }
    }

    /// A model with `nodes` × `cores` placement, flat or hierarchical.
    fn model(nodes: usize, cores: usize, hier: bool) -> ClusterModel {
        let mut m = ClusterModel::test_tiny(nodes * cores);
        m.topology = Topology::new(nodes, cores);
        m.collectives = if hier {
            CollectiveMode::Hierarchical
        } else {
            CollectiveMode::Flat
        };
        m
    }

    /// Random per-rank lists, some empty.
    fn lists(nprocs: usize, seed: u64) -> Vec<OffsetList> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..nprocs)
            .map(|_| {
                let n = (next() % 5) as usize;
                let extents = (0..n)
                    .map(|i| Extent {
                        offset: (i as u64) * 1000 + next() % 500,
                        len: next() % 400,
                    })
                    .collect();
                OffsetList::new(extents)
            })
            .collect()
    }

    type Observed = (Vec<OffsetList>, u64, cc_model::SimTime, CommStats);

    fn run_exchange(model: &ClusterModel, reqs: &[OffsetList], oracle: bool) -> Vec<Observed> {
        let world = World::new(reqs.len(), model.clone());
        world.run(|comm| {
            // Skewed entry clocks exercise clock propagation too.
            comm.advance(cc_model::SimTime::from_secs(
                1e-4 * (comm.rank() % 3) as f64,
            ));
            let mine = &reqs[comm.rank()];
            let (lists, lo) = if oracle {
                let lists = exchange_oracle(comm, mine);
                let lo = lists
                    .iter()
                    .filter_map(|l| l.min_offset())
                    .min()
                    .unwrap_or(0);
                (lists, lo)
            } else {
                let table = exchange_requests(comm, mine);
                assert_eq!(
                    table.shape_hash,
                    shape_fingerprint(&table.requests, table.global_lo)
                );
                ((*table.requests).clone(), table.global_lo)
            };
            comm.barrier();
            assert_eq!(
                comm.live_slots(),
                0,
                "table slot evicted once all ranks took it"
            );
            (lists, lo, comm.clock(), comm.stats())
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The shared table equals the per-rank decode, and the exchange
        /// moves the same messages: identical clocks and `CommStats` on
        /// every rank, flat or hierarchical, down to one rank.
        #[test]
        fn prop_shared_table_equals_per_rank_oracle(
            nodes in 1usize..4,
            cores in 1usize..5,
            hier in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let m = model(nodes, cores, hier);
            let reqs = lists(nodes * cores, seed);
            let shared = run_exchange(&m, &reqs, false);
            let oracle = run_exchange(&m, &reqs, true);
            prop_assert_eq!(shared, oracle);
        }
    }

    #[test]
    fn single_rank_exchange_matches_oracle() {
        let m = model(1, 1, false);
        let reqs = vec![OffsetList::contiguous(7, 9)];
        assert_eq!(
            run_exchange(&m, &reqs, false),
            run_exchange(&m, &reqs, true)
        );
    }
}
