//! Topology-aware hierarchical collectives.
//!
//! Flat collectives send one message per rank pair even when
//! `Topology::same_node` says the peers share memory. Following the
//! two-level designs of Kang et al. (intra-node request aggregation for
//! collective I/O) and Zhou et al. (leader-based collectives for multi-core
//! clusters), each node elects a *leader* — its lowest rank — and traffic
//! is split into two legs: members exchange with their leader over the
//! cheap intra-node fabric, and leaders exchange one *coalesced frame* per
//! node pair across the interconnect. With `c` cores per node this divides
//! inter-node message counts by up to `c` (alltoallv: by `c²` per node
//! pair) at the price of intra-node hops, which the cost model prices an
//! order of magnitude cheaper.
//!
//! The hierarchical paths are *bit-identical* to the flat ones: byte
//! payloads are moved verbatim, and reductions preserve MPI's rank-order
//! combine guarantee (each combine merges contiguous, ascending rank
//! blocks — members fold into their leader in ascending rank order, and
//! the leader tree runs a non-rotated binomial over ascending node
//! indices). Parenthesization *can* differ from the flat binomial, so
//! results for non-associative float ops may differ in the last ulp; all
//! exactly-associative ops (integers, min/max, selection) are bit-equal.
//!
//! Tag discipline: one collective sequence bump covers a whole
//! hierarchical collective; the intra-node, inter-leader, and relay legs
//! each stamp the sequence onto a distinct reserved base so the legs can
//! never cross-match, and per-(source, tag) FIFO plus fixed enumeration
//! orders (ascending ranks within a node, ascending nodes across the
//! machine) make every match deterministic.
//!
//! Fallback: when `cores_per_node == 1` or only one node hosts ranks there
//! is nothing to coalesce, and [`Comm::hier_view`] returns `None` — the
//! dispatchers in `collectives.rs` then run the flat algorithms. The
//! `ClusterModel::collectives` mode can also force flat globally (every
//! rank shares the model, so the choice is SPMD-consistent).

use cc_model::CollectiveMode;

use crate::comm::{Comm, TagValue, SEQ_MASK};
use crate::elem::Elem;
use crate::ops::ReduceOp;

/// Intra-node leg of a hierarchical collective (member <-> leader).
pub(crate) const HIER_INTRA_BASE: TagValue = 0x9000_0000;
/// Inter-node leg (leader <-> leader coalesced frames).
pub(crate) const HIER_INTER_BASE: TagValue = 0xA000_0000;
/// Member -> leader up-frames in the hierarchical alltoallv (distinct from
/// the direct intra-node data blocks riding `HIER_INTRA_BASE`).
pub(crate) const HIER_UP_BASE: TagValue = 0xB000_0000;
/// Leader -> member relay frames in the hierarchical alltoallv.
pub(crate) const HIER_RELAY_BASE: TagValue = 0xC000_0000;

/// This rank's place in the node hierarchy, derived from the topology and
/// the world size. Only exists when the hierarchical paths are active (see
/// [`Comm::hier_view`]), so holders can assume more than one populated
/// node and more than one core per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView {
    /// The node hosting this rank.
    pub node: usize,
    /// This node's leader: its lowest rank.
    pub leader: usize,
    /// First live rank on this node.
    pub node_lo: usize,
    /// One past the last live rank on this node.
    pub node_hi: usize,
    /// Number of nodes hosting at least one rank.
    pub nodes_used: usize,
    cores_per_node: usize,
    nprocs: usize,
}

impl NodeView {
    /// Whether this rank is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        rank == self.leader_of(rank)
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.cores_per_node
    }

    /// The leader rank of `node`.
    pub fn leader_of_node(&self, node: usize) -> usize {
        node * self.cores_per_node
    }

    /// The leader rank of the node hosting `rank`.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.leader_of_node(self.node_of(rank))
    }

    /// The half-open live-rank range of `node`.
    pub fn node_range(&self, node: usize) -> (usize, usize) {
        let lo = (node * self.cores_per_node).min(self.nprocs);
        let hi = ((node + 1) * self.cores_per_node).min(self.nprocs);
        (lo, hi)
    }
}

/// Appends one length-prefixed frame section.
fn push_section(frame: &mut Vec<u8>, bytes: &[u8]) {
    frame.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    frame.extend_from_slice(bytes);
}

/// Reads the length-prefixed section at `*pos`, advancing the cursor.
fn read_section<'f>(frame: &'f [u8], pos: &mut usize) -> &'f [u8] {
    let len = u64::from_le_bytes(frame[*pos..*pos + 8].try_into().expect("section header"));
    *pos += 8;
    let body = &frame[*pos..*pos + len as usize];
    *pos += len as usize;
    body
}

/// The `nprocs` sections of a frame built by
/// [`Comm::hier_allgatherv_frame`], indexed by rank.
pub(crate) fn frame_sections(frame: &[u8], nprocs: usize) -> Vec<&[u8]> {
    let mut pos = 0;
    (0..nprocs).map(|_| read_section(frame, &mut pos)).collect()
}

impl Comm {
    /// This rank's node hierarchy when hierarchical collectives are
    /// active; `None` means callers must use the flat algorithms. Active
    /// iff the model does not force `Flat`, nodes have more than one core,
    /// and more than one node hosts ranks — otherwise there is no
    /// interconnect traffic to coalesce.
    pub fn hier_view(&self) -> Option<NodeView> {
        let model = self.model();
        if model.collectives == CollectiveMode::Flat {
            return None;
        }
        let topo = &model.topology;
        if topo.cores_per_node == 1 {
            return None;
        }
        let nodes_used = topo.nodes_used(self.nprocs());
        if nodes_used < 2 {
            return None;
        }
        let node = topo.node_of(self.rank());
        let (node_lo, node_hi) = topo.node_range(node, self.nprocs());
        Some(NodeView {
            node,
            leader: topo.leader_of_node(node),
            node_lo,
            node_hi,
            nodes_used,
            cores_per_node: topo.cores_per_node,
            nprocs: self.nprocs(),
        })
    }

    /// Sends a leader-to-leader collective frame, losslessly compressed
    /// when the model's `compress_collective_frames` switch is on. The
    /// codec CPU joins the sender overhead on this rank's clock; the wire
    /// is charged on the compressed frame while the `logical_*` stats
    /// lanes keep the decoded length. Lossless only, so the flat/
    /// hierarchical bit-identity contract is untouched. (The typed
    /// `hier_reduce` leg stays raw: its per-hop payloads are already the
    /// reduced partials, not coalesced frames.)
    fn send_inter_frame(&mut self, dst: usize, tag: TagValue, frame: Vec<u8>) {
        if !self.model().compress_collective_frames {
            self.send_bytes(dst, tag, frame);
            return;
        }
        let logical_len = frame.len();
        let mut wire = self.take_buf();
        cc_compress::encode_into(&cc_compress::Compression::Lossless, &frame, &mut wire);
        self.recycle_buf(frame);
        let overhead =
            self.model().cpu.compress_time(logical_len) + self.model().net.send_cost();
        self.advance(overhead);
        let depart = self.clock();
        self.post_framed_bytes_at(dst, tag, wire, depart, logical_len);
    }

    /// Receives a leader-to-leader frame sent by
    /// [`send_inter_frame`](Self::send_inter_frame), decoding it (and
    /// charging decode CPU) when the model compresses collective frames.
    fn recv_inter_frame(&mut self, src: usize, tag: TagValue) -> Vec<u8> {
        let (wire, _) = self.recv_bytes(src, tag);
        if !self.model().compress_collective_frames {
            return wire;
        }
        let mut frame = self.take_buf();
        let n = cc_compress::decode_into(&wire, &mut frame);
        self.recycle_buf(wire);
        let decode = self.model().cpu.decompress_time(n);
        self.advance(decode);
        frame
    }

    /// The per-leg tags of one hierarchical collective, all stamped with
    /// the sequence number already embedded in `tag` (the single bump the
    /// dispatcher performed).
    pub(crate) fn hier_tags(tag: TagValue) -> (TagValue, TagValue) {
        let seq = tag & SEQ_MASK;
        (HIER_INTRA_BASE | seq, HIER_INTER_BASE | seq)
    }

    /// Hierarchical binomial broadcast: root -> its node leader (intra),
    /// rotated binomial over node leaders (inter), leaders -> members
    /// (intra).
    pub(crate) fn hier_bcast_bytes(
        &mut self,
        view: &NodeView,
        root: usize,
        data: Option<Vec<u8>>,
        tag: TagValue,
    ) -> Vec<u8> {
        let (t_intra, t_inter) = Self::hier_tags(tag);
        let rank = self.rank();
        let root_node = view.node_of(root);
        let am_leader = rank == view.leader;
        let mut payload = if rank == root {
            data.expect("root must supply the broadcast payload")
        } else {
            Vec::new()
        };

        // Leg 1: the root hands the payload to its node's leader.
        if rank == root && !am_leader {
            let mut buf = self.take_buf();
            buf.extend_from_slice(&payload);
            self.send_bytes(view.leader, t_intra, buf);
        }
        if am_leader && view.node == root_node && rank != root {
            payload = self.recv_bytes(root, t_intra).0;
        }

        // Leg 2: rotated binomial over node indices, leaders only (bcast
        // has no combine order to preserve, so rotation is fine).
        if am_leader {
            let n = view.nodes_used;
            let vnode = (view.node + n - root_node) % n;
            if vnode != 0 {
                let parent_v = vnode & (vnode - 1);
                let parent = view.leader_of_node((parent_v + root_node) % n);
                payload = self.recv_inter_frame(parent, t_inter);
            }
            let lowest = if vnode == 0 {
                n.next_power_of_two()
            } else {
                1 << vnode.trailing_zeros()
            };
            let mut bit = lowest >> 1;
            while bit > 0 {
                let child_v = vnode | bit;
                if child_v < n && child_v != vnode {
                    let child = view.leader_of_node((child_v + root_node) % n);
                    let mut buf = self.take_buf();
                    buf.extend_from_slice(&payload);
                    self.send_inter_frame(child, t_inter, buf);
                }
                bit >>= 1;
            }
            // Leg 3 (send side): fan out to the node's members. The root
            // already holds the payload and posts no receive.
            for dst in view.node_lo..view.node_hi {
                if dst != rank && dst != root {
                    let mut buf = self.take_buf();
                    buf.extend_from_slice(&payload);
                    self.send_bytes(dst, t_intra, buf);
                }
            }
        } else if rank != root {
            // Leg 3 (receive side).
            payload = self.recv_bytes(view.leader, t_intra).0;
        }
        payload
    }

    /// Hierarchical gather of byte blocks to `root`: members of remote
    /// nodes send to their leader (intra), each remote leader sends one
    /// frame of its node's blocks — ascending rank order, length-prefixed
    /// — to the root (inter), and the root's own node sends directly
    /// (intra). Returns `Some(blocks_by_rank)` on the root.
    pub(crate) fn hier_gatherv_bytes(
        &mut self,
        view: &NodeView,
        root: usize,
        mine: &[u8],
        tag: TagValue,
    ) -> Option<Vec<Vec<u8>>> {
        let (t_intra, t_inter) = Self::hier_tags(tag);
        let rank = self.rank();
        let root_node = view.node_of(root);

        if rank == root {
            let mut out: Vec<Vec<u8>> = (0..self.nprocs()).map(|_| Vec::new()).collect();
            out[root] = mine.to_vec();
            #[allow(clippy::needless_range_loop)] // src is the peer rank
            for src in view.node_lo..view.node_hi {
                if src != root {
                    out[src] = self.recv_bytes(src, t_intra).0;
                }
            }
            for node in 0..view.nodes_used {
                if node == root_node {
                    continue;
                }
                let frame = self.recv_inter_frame(view.leader_of_node(node), t_inter);
                let (lo, hi) = view.node_range(node);
                let mut pos = 0;
                #[allow(clippy::needless_range_loop)] // src is the peer rank
                for src in lo..hi {
                    out[src] = read_section(&frame, &mut pos).to_vec();
                }
                self.recycle_buf(frame);
            }
            return Some(out);
        }

        if view.node == root_node {
            // The root's own node needs no coalescing: its members reach
            // the root over shared memory already.
            self.send(root, t_intra, mine);
            return None;
        }
        if rank == view.leader {
            let mut frame = self.take_buf();
            // Sections in ascending rank order; the leader is the node's
            // lowest rank, so its own block comes first.
            push_section(&mut frame, mine);
            for src in view.node_lo + 1..view.node_hi {
                let (bytes, _) = self.recv_bytes(src, t_intra);
                push_section(&mut frame, &bytes);
                self.recycle_buf(bytes);
            }
            self.send_inter_frame(root, t_inter, frame);
        } else {
            self.send(view.leader, t_intra, mine);
        }
        None
    }

    /// Hierarchical allgather: gather everything to rank 0 (the leader of
    /// node 0), then broadcast one frame holding all blocks. Returns the
    /// frame; [`frame_sections`] splits it by rank.
    pub(crate) fn hier_allgatherv_frame(
        &mut self,
        view: &NodeView,
        mine: &[u8],
        tag: TagValue,
    ) -> Vec<u8> {
        let table = self.hier_gatherv_bytes(view, 0, mine, tag);
        let frame = table.map(|blocks| {
            let mut frame = self.take_buf();
            frame.reserve(blocks.iter().map(|b| 8 + b.len()).sum());
            for block in &blocks {
                push_section(&mut frame, block);
            }
            frame
        });
        self.hier_bcast_bytes(view, 0, frame, tag)
    }

    /// Hierarchical rank-order reduce: members fold into their leader in
    /// ascending rank order (intra), leaders run a non-rotated binomial
    /// over ascending node indices (inter) so every combine still merges
    /// contiguous ascending rank blocks, and rank 0 — the tree's root —
    /// forwards the finished result to a nonzero `root`, exactly like the
    /// flat algorithm.
    pub(crate) fn hier_reduce<T: Elem>(
        &mut self,
        view: &NodeView,
        root: usize,
        data: &[T],
        op: &dyn ReduceOp<T>,
        tag: TagValue,
    ) -> Option<Vec<T>> {
        let (t_intra, t_inter) = Self::hier_tags(tag);
        let rank = self.rank();
        let mut acc = data.to_vec();

        if rank != view.leader {
            self.send(view.leader, t_intra, &acc);
        } else {
            for src in view.node_lo + 1..view.node_hi {
                let (incoming, _) = self.recv::<T>(src, t_intra);
                op.combine(&mut acc, &incoming);
            }
            // Binomial over node indices, *not* rotated: node n's partial
            // covers ranks [node_lo, node_hi), so combining node n with
            // node n|bit merges adjacent ascending blocks.
            let n = view.node;
            let mut bit = 1;
            while bit < view.nodes_used {
                if n & bit != 0 {
                    self.send(view.leader_of_node(n & !bit), t_inter, &acc);
                    break;
                }
                let child = n | bit;
                if child < view.nodes_used {
                    let (incoming, _) = self.recv::<T>(view.leader_of_node(child), t_inter);
                    op.combine(&mut acc, &incoming);
                }
                bit <<= 1;
            }
        }
        // The tree result lives at rank 0 (leader of node 0).
        if root == 0 {
            return (rank == 0).then_some(acc);
        }
        if rank == 0 {
            self.send(root, t_inter, &acc);
            None
        } else if rank == root {
            Some(self.recv::<T>(0, t_inter).0)
        } else {
            None
        }
    }

    /// Hierarchical personalized all-to-all. Within a node, blocks move
    /// directly between members (shared memory is already cheap). Across
    /// nodes, each member ships one length-prefixed *up-frame* per remote
    /// node to its leader; the leader concatenates its members' up-frames
    /// — ascending source rank — into one frame per node pair, exchanges
    /// them leader-to-leader, and relays each incoming frame's sections to
    /// its members. All loops enumerate ascending (nodes outer, ranks
    /// inner), which with per-(source, tag) FIFO makes every match
    /// deterministic. Leaders' own up-frames and relays ride the self-send
    /// short-circuit, so they move without copies or envelopes.
    pub(crate) fn hier_alltoallv_bytes(
        &mut self,
        view: &NodeView,
        mut sends: Vec<Vec<u8>>,
        tag: TagValue,
    ) -> Vec<Vec<u8>> {
        let (t_intra, t_inter) = Self::hier_tags(tag);
        let seq = tag & SEQ_MASK;
        let (t_up, t_relay) = (HIER_UP_BASE | seq, HIER_RELAY_BASE | seq);
        let p = self.nprocs();
        assert_eq!(sends.len(), p, "alltoallv needs one buffer per rank");
        let rank = self.rank();
        let am_leader = rank == view.leader;
        let mut recvs: Vec<Vec<u8>> = (0..p).map(|_| Vec::new()).collect();
        recvs[rank] = std::mem::take(&mut sends[rank]);

        // Phase 1 (all eager): direct intra-node blocks, then one up-frame
        // per remote node to the leader (the leader's own up-frames
        // short-circuit through its self queue).
        #[allow(clippy::needless_range_loop)] // dst is the peer rank
        for dst in view.node_lo..view.node_hi {
            if dst != rank {
                self.send_bytes(dst, t_intra, std::mem::take(&mut sends[dst]));
            }
        }
        for node in 0..view.nodes_used {
            if node == view.node {
                continue;
            }
            let (lo, hi) = view.node_range(node);
            let mut frame = self.take_buf();
            #[allow(clippy::needless_range_loop)] // dst is the peer rank
            for dst in lo..hi {
                push_section(&mut frame, &sends[dst]);
                sends[dst] = Vec::new();
            }
            self.send_bytes(view.leader, t_up, frame);
        }

        // Phase 2 (leaders): per remote node, concatenate the members'
        // up-frames in ascending source-rank order and exchange one frame
        // per node pair. FIFO per (source, tag) pairs the i-th up-frame
        // from a member with the i-th remote node in ascending order on
        // both sides.
        if am_leader {
            for node in 0..view.nodes_used {
                if node == view.node {
                    continue;
                }
                let mut frame = self.take_buf();
                for src in view.node_lo..view.node_hi {
                    let (up, _) = self.recv_bytes(src, t_up);
                    frame.extend_from_slice(&up);
                    self.recycle_buf(up);
                }
                self.send_inter_frame(view.leader_of_node(node), t_inter, frame);
            }
            // Receive the node-pair frames and relay per-member slices:
            // frame layout is src-major (ascending src in the remote
            // node), dst-minor (ascending dst here), so relaying walks the
            // sections and regroups them by destination member.
            for node in 0..view.nodes_used {
                if node == view.node {
                    continue;
                }
                let frame = self.recv_inter_frame(view.leader_of_node(node), t_inter);
                let (lo, hi) = view.node_range(node);
                let members = view.node_hi - view.node_lo;
                let mut relays: Vec<Vec<u8>> = Vec::with_capacity(members);
                for _ in 0..members {
                    relays.push(self.take_buf());
                }
                let mut pos = 0;
                for _src in lo..hi {
                    for relay in relays.iter_mut() {
                        let body = read_section(&frame, &mut pos);
                        push_section(relay, body);
                    }
                }
                self.recycle_buf(frame);
                for (slot, relay) in relays.into_iter().enumerate() {
                    self.send_bytes(view.node_lo + slot, t_relay, relay);
                }
            }
        }

        // Phase 3 (all ranks): unpack relayed remote blocks, then drain
        // the direct intra-node blocks.
        for node in 0..view.nodes_used {
            if node == view.node {
                continue;
            }
            let (relay, _) = self.recv_bytes(view.leader, t_relay);
            let (lo, hi) = view.node_range(node);
            let mut pos = 0;
            #[allow(clippy::needless_range_loop)] // src is the peer rank
            for src in lo..hi {
                recvs[src] = read_section(&relay, &mut pos).to_vec();
            }
            self.recycle_buf(relay);
        }
        #[allow(clippy::needless_range_loop)] // src is the peer rank
        for src in view.node_lo..view.node_hi {
            if src != rank {
                let (block, _) = self.recv_bytes(src, t_intra);
                recvs[src] = block;
            }
        }
        recvs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{FnOp, MaxOp, MinOp, SumOp};
    use crate::world::World;
    use cc_model::ClusterModel;

    fn model(nodes: usize, cores: usize, mode: CollectiveMode) -> ClusterModel {
        ClusterModel::hopper_like(nodes, cores).with_collectives(mode)
    }

    /// Runs `f` under flat and hierarchical collectives on the same
    /// topology and asserts identical per-rank results.
    fn assert_modes_agree<R>(
        nodes: usize,
        cores: usize,
        nprocs: usize,
        f: impl Fn(&mut Comm) -> R + Send + Sync,
    ) where
        R: PartialEq + std::fmt::Debug + Send,
    {
        let flat = World::new(nprocs, model(nodes, cores, CollectiveMode::Flat)).run(&f);
        let hier = World::new(nprocs, model(nodes, cores, CollectiveMode::Hierarchical)).run(&f);
        assert_eq!(
            flat, hier,
            "hier diverged from flat ({nodes} nodes x {cores} cores, {nprocs} ranks)"
        );
    }

    #[test]
    fn hier_view_gating() {
        // Multi-core multi-node: hierarchical.
        let views = World::new(8, model(2, 4, CollectiveMode::Auto)).run(|c| c.hier_view());
        assert!(views.iter().all(Option::is_some));
        assert_eq!(views[5].unwrap().leader, 4);
        // One core per node: nothing to coalesce.
        let views = World::new(4, model(4, 1, CollectiveMode::Auto)).run(|c| c.hier_view());
        assert!(views.iter().all(Option::is_none));
        // World fits on one node: nothing crosses the interconnect.
        let views = World::new(3, model(4, 4, CollectiveMode::Auto)).run(|c| c.hier_view());
        assert!(views.iter().all(Option::is_none));
        // Flat mode forces the view off even on a hierarchical topology.
        let views = World::new(8, model(2, 4, CollectiveMode::Flat)).run(|c| c.hier_view());
        assert!(views.iter().all(Option::is_none));
    }

    #[test]
    fn all_collectives_agree_on_partial_worlds() {
        // Non-power-of-two nodes, partially filled last node.
        for (nodes, cores, nprocs) in [(2, 2, 4), (3, 4, 10), (5, 3, 13), (2, 16, 32)] {
            assert_modes_agree(nodes, cores, nprocs, move |comm| {
                let rank = comm.rank();
                let root = nprocs / 2;
                let payload: Vec<u8> = (0..50).map(|i| (rank + i) as u8).collect();
                let b = comm.bcast_bytes(root, (rank == root).then(|| payload.clone()));
                let mine: Vec<u32> = (0..rank % 5).map(|i| (rank * 10 + i) as u32).collect();
                let g = comm.gatherv(root, &mine);
                let ag = comm.allgatherv(&mine);
                let sends: Vec<Vec<u8>> = (0..nprocs)
                    .map(|d| vec![(rank * nprocs + d) as u8; (rank + d) % 4])
                    .collect();
                let a2a = comm.alltoallv_bytes(sends);
                let r = comm.reduce(root, &[rank as u64, 1], &SumOp);
                let ar = comm.allreduce(&[rank as i64 - 3], &MinOp);
                (b, g, ag, a2a, r, ar)
            });
        }
    }

    #[test]
    fn reduce_preserves_rank_order_across_node_boundaries() {
        for (nodes, cores, nprocs) in [(3, 4, 12), (3, 4, 9), (4, 2, 7)] {
            for root in [0, 1, nprocs - 1] {
                let results = World::new(nprocs, model(nodes, cores, CollectiveMode::Hierarchical))
                    .run(move |comm| {
                        let take_left = FnOp(|_acc: &mut [u64], _inc: &[u64]| {});
                        comm.reduce(root, &[comm.rank() as u64 + 100], &take_left)
                    });
                assert_eq!(results[root].as_ref().unwrap(), &vec![100]);
                let results = World::new(nprocs, model(nodes, cores, CollectiveMode::Hierarchical))
                    .run(move |comm| {
                        let take_right = FnOp(|acc: &mut [u64], inc: &[u64]| {
                            acc.copy_from_slice(inc);
                        });
                        comm.reduce(root, &[comm.rank() as u64 + 100], &take_right)
                    });
                assert_eq!(results[root].as_ref().unwrap(), &vec![100 + nprocs as u64 - 1]);
            }
        }
    }

    #[test]
    fn hierarchical_alltoallv_cuts_inter_node_messages() {
        let nodes = 4;
        let cores = 4;
        let nprocs = nodes * cores;
        let count_inter = |mode: CollectiveMode| -> (usize, Vec<Vec<u8>>) {
            let runs = World::new(nprocs, model(nodes, cores, mode)).run(move |comm| {
                let sends: Vec<Vec<u8>> =
                    (0..nprocs).map(|d| vec![comm.rank() as u8; d + 1]).collect();
                let recvs = comm.alltoallv_bytes(sends);
                (comm.stats().msgs_inter, recvs)
            });
            let total = runs.iter().map(|(m, _)| m).sum();
            (total, runs.into_iter().flat_map(|(_, r)| r).collect())
        };
        let (flat_inter, flat_data) = count_inter(CollectiveMode::Flat);
        let (hier_inter, hier_data) = count_inter(CollectiveMode::Hierarchical);
        assert_eq!(flat_data, hier_data, "payloads must be bit-identical");
        // Flat: every rank messages all 12 remote ranks => 192 inter
        // messages. Hierarchical: one frame per ordered node pair => 12.
        assert_eq!(flat_inter, nprocs * (nprocs - cores));
        assert_eq!(hier_inter, nodes * (nodes - 1));
        assert!(hier_inter * 4 <= flat_inter);
    }

    #[test]
    fn compressed_collective_frames_agree_and_cut_wire_bytes() {
        let nodes = 3;
        let cores = 4;
        let nprocs = nodes * cores;
        let run = |compress: bool| {
            let model = model(nodes, cores, CollectiveMode::Hierarchical)
                .with_compressed_collective_frames(compress);
            World::new(nprocs, model).run(move |comm| {
                let rank = comm.rank();
                // Highly regular payloads so the lossless word coder has
                // structure to exploit on the coalesced frames.
                let sends: Vec<Vec<u8>> = (0..nprocs)
                    .map(|d| vec![(rank % 7) as u8; 64 + d * 8])
                    .collect();
                let a2a = comm.alltoallv_bytes(sends);
                let b = comm.bcast_bytes(0, (rank == 0).then(|| vec![42u8; 4096]));
                let g = comm.gatherv(0, &vec![rank as u64; 32]);
                let ag = comm.allgatherv(&[rank as u32; 16]);
                ((a2a, b, g, ag), comm.stats())
            })
        };
        let raw = run(false);
        let compressed = run(true);
        for ((r, _), (c, _)) in raw.iter().zip(&compressed) {
            assert_eq!(r, c, "compressed collectives changed results");
        }
        let wire: usize = compressed.iter().map(|(_, s)| s.bytes_inter).sum();
        let logical: usize = compressed.iter().map(|(_, s)| s.logical_inter).sum();
        assert!(
            wire < logical,
            "compressed frames should shrink inter-node wire bytes: wire {wire} logical {logical}"
        );
        let raw_wire: usize = raw.iter().map(|(_, s)| s.bytes_inter).sum();
        assert_eq!(raw_wire, logical, "logical bytes must match the raw run's wire bytes");
    }

    #[test]
    fn collectives_compose_across_modes_with_p2p() {
        // Interleaved p2p and hierarchical collectives: tag spaces stay
        // disjoint and sequence numbers stay symmetric.
        let results = World::new(6, model(3, 2, CollectiveMode::Hierarchical)).run(|comm| {
            let next = (comm.rank() + 1) % 6;
            let prev = (comm.rank() + 5) % 6;
            comm.send(next, 17, &[comm.rank() as u32]);
            let total = comm.allreduce(&[1.0f64], &SumOp)[0];
            let (from_prev, _) = comm.recv::<u32>(prev, 17);
            let maxed = comm.allreduce(&[comm.rank() as u64], &MaxOp)[0];
            comm.barrier();
            (total, from_prev[0], maxed)
        });
        for (r, (total, from, maxed)) in results.iter().enumerate() {
            assert_eq!(*total, 6.0);
            assert_eq!(*from as usize, (r + 5) % 6);
            assert_eq!(*maxed, 5);
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Random world shapes biased toward awkward cases: single-core
        /// nodes, non-power-of-two node counts, partially filled nodes.
        fn shapes() -> impl Strategy<Value = (usize, usize, usize)> {
            (1..6usize, 1..5usize, 1..100usize).prop_map(|(nodes, cores, fill)| {
                let cap = nodes * cores;
                let nprocs = 1 + fill % cap;
                (nodes, cores, nprocs)
            })
        }

        proptest! {
            #![proptest_config(proptest::test_runner::Config::with_cases(16))]

            #[test]
            fn prop_bcast_and_gather_agree(shape in shapes(), seed in any::<u32>()) {
                let (nodes, cores, nprocs) = shape;
                let root = seed as usize % nprocs;
                assert_modes_agree(nodes, cores, nprocs, move |comm| {
                    let rank = comm.rank();
                    let len = (seed as usize + rank * 7) % 60;
                    let payload: Vec<u8> =
                        (0..len).map(|i| (seed as usize + i) as u8).collect();
                    let b = comm.bcast_bytes(root, (rank == root).then(|| payload.clone()));
                    let mine: Vec<u64> = (0..(rank + seed as usize) % 6)
                        .map(|i| (rank * 1000 + i) as u64)
                        .collect();
                    let g = comm.gatherv(root, &mine);
                    let ag = comm.allgatherv(&mine);
                    (b, g, ag)
                });
            }

            #[test]
            fn prop_alltoallv_agrees(shape in shapes(), seed in any::<u32>()) {
                let (nodes, cores, nprocs) = shape;
                assert_modes_agree(nodes, cores, nprocs, move |comm| {
                    let rank = comm.rank();
                    let sends: Vec<Vec<u8>> = (0..nprocs)
                        .map(|d| {
                            let len = (seed as usize + rank * 13 + d * 5) % 40;
                            (0..len).map(|i| (rank * 31 + d * 7 + i) as u8).collect()
                        })
                        .collect();
                    comm.alltoallv_bytes(sends)
                });
            }

            #[test]
            fn prop_reduce_agrees(shape in shapes(), seed in any::<u32>()) {
                let (nodes, cores, nprocs) = shape;
                let root = (seed / 7) as usize % nprocs;
                assert_modes_agree(nodes, cores, nprocs, move |comm| {
                    // Exactly-associative ops only: wrapping sum, min/max,
                    // and noncommutative first/last selection. Float
                    // parenthesization may legitimately differ between the
                    // trees.
                    let wrapping_sum = FnOp(|acc: &mut [u64], inc: &[u64]| {
                        for (a, b) in acc.iter_mut().zip(inc) {
                            *a = a.wrapping_add(*b);
                        }
                    });
                    let take_right = FnOp(|acc: &mut [u64], inc: &[u64]| {
                        acc.copy_from_slice(inc);
                    });
                    let mine = [
                        (comm.rank() as u64).wrapping_mul(seed as u64 | 1),
                        comm.rank() as u64,
                    ];
                    let s = comm.reduce(root, &mine, &wrapping_sum);
                    let r = comm.reduce(root, &mine, &take_right);
                    let mn = comm.allreduce(&mine, &MinOp);
                    let mx = comm.allreduce(&mine, &MaxOp);
                    (s, r, mn, mx)
                });
            }
        }
    }
}
