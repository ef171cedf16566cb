//! Software-pipelining benchmark: staging-ring depth vs collective time.
//!
//! The scenario is the read-dominated iterative collective the pipelined
//! engines exist to accelerate. Every rank reads an interleaved set of
//! stripe-sized blocks, so each aggregator's collective-buffer iteration
//! scatters to many ranks and the per-iteration clock has two comparable
//! legs: the covering read from the OSTs and the shuffle pack/post work
//! (the model calibrates scatter costs so the shuffle leg approaches the
//! read leg, as the paper measures on Hopper). A one-buffer ring must
//! serialize the legs — iteration `i+1`'s read cannot start until `i`'s
//! shuffle has drained the staging buffer — so its iteration clock is
//! `read + shuffle`. A deeper ring overlaps them and the clock drops
//! toward `max(read, shuffle)`.
//!
//! Unlike the layout replay, this harness runs the *real* two-phase read
//! engine — `collective_read` inside a full `World` — so the measured
//! makespan includes shuffle delivery, aggregator/compute rank skew, and
//! OST queueing. The binary asserts the per-rank FNV checksums are
//! bit-identical across every depth before reporting: pipelining reorders
//! *when* buffers are filled, never *what* they carry.

use std::sync::Arc;

use cc_model::{ClusterModel, SimTime};
use cc_mpi::World;
use cc_mpiio::{collective_read, DomainPartition, Extent, Hints, OffsetList, PipelineDepth, Striping};
use cc_pfs::{MemBackend, Pfs, StripeLayout};

use crate::Scale;

/// Shape of one pipeline-benchmark scenario.
#[derive(Debug, Clone, Copy)]
pub struct PipelineBenchConfig {
    /// Ranks in the job.
    pub nprocs: usize,
    /// Nodes (one aggregator per node).
    pub nodes: usize,
    /// OSTs in the file system; the file stripes over all of them.
    pub osts: usize,
    /// Stripe size in bytes.
    pub stripe_unit: u64,
    /// Size of one interleaved piece. Small pieces make the shuffle leg
    /// scatter-overhead-bound, the regime the paper measures (Fig. 1).
    pub piece_bytes: u64,
    /// Pieces each rank reads, interleaved round-robin across ranks.
    pub pieces_per_rank: u64,
    /// Collective buffer size, in stripes.
    pub cb_stripes: u64,
}

impl PipelineBenchConfig {
    /// `Full` is the acceptance configuration (≥256 ranks); `Quick`
    /// shrinks it for CI smoke runs while keeping enough collective-buffer
    /// iterations per aggregator for the pipeline to fill.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                nprocs: 256,
                nodes: 32,
                osts: 64,
                stripe_unit: 64 << 10,
                piece_bytes: 2048,
                pieces_per_rank: 256,
                cb_stripes: 8,
            },
            Scale::Quick => Self {
                nprocs: 32,
                nodes: 8,
                osts: 16,
                stripe_unit: 8 << 10,
                piece_bytes: 160,
                pieces_per_rank: 512,
                cb_stripes: 4,
            },
        }
    }

    /// Total file size: every rank's pieces, no holes.
    pub fn file_size(&self) -> u64 {
        self.nprocs as u64 * self.pieces_per_rank * self.piece_bytes
    }

    /// Collective-buffer iterations each aggregator pipelines.
    pub fn iterations_per_aggregator(&self) -> u64 {
        self.file_size() / self.nodes as u64 / (self.cb_stripes * self.stripe_unit)
    }

    /// The planner hints at `depth`.
    pub fn hints(&self, depth: PipelineDepth) -> Hints {
        Hints {
            cb_buffer_size: self.cb_stripes * self.stripe_unit,
            aggregators_per_node: 1,
            pipeline_depth: depth,
            // Group-cyclic domains give each aggregator a private OST
            // subset, so the read leg is seek-bound rather than
            // congestion-bound and overlapping it with the shuffle pays
            // in full (cross-aggregator queueing would otherwise cap the
            // pipeline's win).
            domain_partition: DomainPartition::GroupCyclic,
            striping: Some(Striping {
                unit: self.stripe_unit,
                factor: self.osts,
            }),
            ..Hints::default()
        }
    }

    /// Rank `r`'s request: `pieces_per_rank` pieces at positions
    /// `r, r + nprocs, r + 2*nprocs, ...` — finely interleaved so every
    /// collective-buffer iteration scatters hundreds of pieces to many
    /// destinations and the shuffle leg is comparable to the read leg.
    pub fn request(&self, r: usize) -> OffsetList {
        OffsetList::new(
            (0..self.pieces_per_rank)
                .map(|k| Extent {
                    offset: (k * self.nprocs as u64 + r as u64) * self.piece_bytes,
                    len: self.piece_bytes,
                })
                .collect(),
        )
    }
}

/// The deterministic byte at file offset `o`.
pub fn value_at(o: u64) -> u8 {
    (o.wrapping_mul(179) ^ (o >> 9)) as u8
}

/// What one staging depth measured.
#[derive(Debug, Clone)]
pub struct DepthOutcome {
    /// Human label for the depth (`"sequential"`, `"depth-2"`, ...).
    pub label: &'static str,
    /// Collective makespan in virtual seconds (max over ranks of the
    /// report end).
    pub elapsed_secs: f64,
    /// Summed per-iteration read durations over all aggregators.
    pub read_secs: f64,
    /// Summed per-iteration shuffle durations over all aggregators.
    pub shuffle_secs: f64,
    /// FNV-1a checksum over every rank's returned request bytes, in rank
    /// order — must be bit-identical across depths.
    pub checksum: u64,
}

/// Runs the full two-phase read engine at one staging depth.
pub fn run_depth(
    cfg: &PipelineBenchConfig,
    label: &'static str,
    depth: PipelineDepth,
) -> DepthOutcome {
    let size = cfg.file_size();
    let fs = Pfs::new(cfg.osts, cc_model::DiskModel::lustre_like());
    fs.create(
        "pipe",
        StripeLayout::round_robin(cfg.stripe_unit, cfg.osts, 0, cfg.osts),
        Box::new(MemBackend::from_bytes((0..size).map(value_at).collect())),
    );
    let fs = Arc::new(fs);
    let cores = cfg.nprocs.div_ceil(cfg.nodes);
    let world = World::new(cfg.nprocs, ClusterModel::hopper_like(cfg.nodes, cores));
    let hints = cfg.hints(depth);
    let per_rank = {
        let fs = &fs;
        let hints = &hints;
        let cfg = *cfg;
        world.run(move |comm| {
            let file = fs.open("pipe").expect("exists");
            let req = cfg.request(comm.rank());
            let (bytes, report) = collective_read(comm, fs, &file, &req, hints);
            (
                bytes,
                report.end,
                report.read_total(),
                report.shuffle_total(),
            )
        })
    };
    let mut checksum = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    let mut end = SimTime::ZERO;
    let mut read = SimTime::ZERO;
    let mut shuffle = SimTime::ZERO;
    for (bytes, e, r, s) in &per_rank {
        for &b in bytes {
            checksum ^= b as u64;
            checksum = checksum.wrapping_mul(0x1000_0000_01b3);
        }
        end = end.max(*e);
        read += *r;
        shuffle += *s;
    }
    DepthOutcome {
        label,
        elapsed_secs: end.secs(),
        read_secs: read.secs(),
        shuffle_secs: shuffle.secs(),
        checksum,
    }
}

/// Runs the depth ladder on one scenario, in the order
/// `[sequential, depth-2, depth-3, unbounded]`.
pub fn run_all(cfg: &PipelineBenchConfig) -> Vec<DepthOutcome> {
    vec![
        run_depth(cfg, "sequential", PipelineDepth::Sequential),
        run_depth(cfg, "depth-2", PipelineDepth::double()),
        run_depth(cfg, "depth-3", PipelineDepth::Depth(3)),
        run_depth(cfg, "unbounded", PipelineDepth::Unbounded),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_ladder_agrees_and_double_buffering_wins() {
        let cfg = PipelineBenchConfig {
            nprocs: 8,
            nodes: 2,
            osts: 4,
            stripe_unit: 4 << 10,
            piece_bytes: 160,
            pieces_per_rank: 512,
            cb_stripes: 4,
        };
        assert!(cfg.iterations_per_aggregator() >= 4);
        let out = run_all(&cfg);
        for o in &out[1..] {
            assert_eq!(out[0].checksum, o.checksum, "{} bytes diverged", o.label);
        }
        // Double buffering overlaps the read and shuffle legs; on a
        // workload with comparable legs that must show as a speedup.
        assert!(
            out[1].elapsed_secs < out[0].elapsed_secs,
            "depth-2 {} >= sequential {}",
            out[1].elapsed_secs,
            out[0].elapsed_secs
        );
    }
}
