//! Compression benchmark: error-bounded lossy frames vs raw movement.
//!
//! The scenario is the interleaved collective the two-phase engines run
//! everywhere else in this harness, but over a *smooth f64 science field*
//! — the payload class the codec exists for. Every rank reads (or writes)
//! a finely interleaved set of pieces, so the shuffle genuinely crosses
//! the interconnect, and the same job runs once per `(bandwidth, codec
//! mode)` cell: raw, lossless, and error-bounded frames at tight and
//! loose bounds, on the calibrated interconnect and on a slowed one where
//! wire bytes dominate.
//!
//! Three properties are under test, and the binary asserts all of them
//! before reporting: lossless frames move *identical* bytes (FNV checksums
//! match the raw run), error-bounded frames respect the bound end to end
//! (one hop for the read shuffle, two compounding hops for write-back),
//! and the per-lane `CommStats` logical-vs-wire gap shows the advertised
//! inter-node byte reduction actually happened on the wire.

use std::sync::Arc;

use cc_model::{ClusterModel, SimTime};
use cc_mpi::{CommStats, World};
use cc_mpiio::{
    collective_read, collective_write, Compression, Extent, Hints, OffsetList, Striping,
};
use cc_pfs::{MemBackend, Pfs, StripeLayout};

use crate::Scale;

/// Shape of one compression-benchmark scenario.
#[derive(Debug, Clone, Copy)]
pub struct CompressBenchConfig {
    /// Ranks in the job.
    pub nprocs: usize,
    /// Nodes (one aggregator per node).
    pub nodes: usize,
    /// OSTs in the file system; the file stripes over all of them.
    pub osts: usize,
    /// Stripe size in bytes.
    pub stripe_unit: u64,
    /// Size of one interleaved piece (a multiple of 8: whole f64s).
    pub piece_bytes: u64,
    /// Pieces each rank touches, interleaved round-robin across ranks.
    pub pieces_per_rank: u64,
    /// Collective buffer size, in stripes.
    pub cb_stripes: u64,
}

impl CompressBenchConfig {
    /// `Full` is the acceptance configuration; `Quick` shrinks it for CI
    /// smoke runs while keeping several collective-buffer iterations per
    /// aggregator and real inter-node traffic.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                nprocs: 64,
                nodes: 8,
                osts: 16,
                stripe_unit: 64 << 10,
                piece_bytes: 2048,
                pieces_per_rank: 256,
                cb_stripes: 4,
            },
            Scale::Quick => Self {
                nprocs: 16,
                nodes: 4,
                osts: 8,
                stripe_unit: 8 << 10,
                piece_bytes: 512,
                pieces_per_rank: 64,
                cb_stripes: 4,
            },
        }
    }

    /// Total file size: every rank's pieces, no holes.
    pub fn file_size(&self) -> u64 {
        self.nprocs as u64 * self.pieces_per_rank * self.piece_bytes
    }

    /// Collective-buffer iterations each aggregator works through.
    pub fn iterations_per_aggregator(&self) -> u64 {
        self.file_size() / self.nodes as u64 / (self.cb_stripes * self.stripe_unit)
    }

    /// The planner hints carrying `compression`.
    pub fn hints(&self, compression: Compression) -> Hints {
        Hints {
            cb_buffer_size: self.cb_stripes * self.stripe_unit,
            aggregators_per_node: 1,
            compression,
            striping: Some(Striping {
                unit: self.stripe_unit,
                factor: self.osts,
            }),
            ..Hints::default()
        }
    }

    /// Rank `r`'s pieces at positions `r, r + nprocs, r + 2*nprocs, ...`.
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

    /// The cluster model, with the interconnect slowed by `slowdown`
    /// (1.0 = the calibrated Gemini-like network).
    fn model(&self, slowdown: f64) -> ClusterModel {
        let cores = self.nprocs.div_ceil(self.nodes);
        let mut model = ClusterModel::hopper_like(self.nodes, cores);
        model.net.bw_inter /= slowdown;
        model
    }
}

/// The smooth f64 field at element `i`: a slowly varying sinusoid around
/// 300 with range 80 — the temperature-like payload SZ-class codecs
/// compress by an order of magnitude at tight bounds.
pub fn field_value(i: u64) -> f64 {
    300.0 + 40.0 * (i as f64 * 1e-3).sin()
}

/// The whole field as little-endian bytes.
pub fn field_bytes(size: u64) -> Vec<u8> {
    (0..size / 8).flat_map(|i| field_value(i).to_le_bytes()).collect()
}

/// What one `(bandwidth, mode)` cell of the sweep measured.
#[derive(Debug, Clone)]
pub struct CompressOutcome {
    /// Collective makespan in virtual seconds (max over ranks).
    pub elapsed_secs: f64,
    /// Pre-compression inter-node bytes, summed over ranks.
    pub logical_inter: usize,
    /// Post-compression inter-node wire bytes, summed over ranks.
    pub wire_inter: usize,
    /// Largest `|got - field|` over every element this run touched
    /// (returned request bytes for reads, file contents for writes).
    pub max_err: f64,
    /// FNV-1a over the run's data bytes, in rank / file order.
    pub checksum: u64,
}

impl CompressOutcome {
    /// Logical-to-wire byte ratio on the inter-node lane.
    pub fn wire_ratio(&self) -> f64 {
        self.logical_inter as f64 / self.wire_inter.max(1) as f64
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv(checksum: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *checksum ^= b as u64;
        *checksum = checksum.wrapping_mul(FNV_PRIME);
    }
}

fn sum_inter(stats: &[CommStats]) -> (usize, usize) {
    (
        stats.iter().map(|s| s.logical_inter).sum(),
        stats.iter().map(|s| s.bytes_inter).sum(),
    )
}

/// Runs the collective read of the smooth field once under `compression`.
pub fn read_case(
    cfg: &CompressBenchConfig,
    compression: Compression,
    slowdown: f64,
) -> CompressOutcome {
    let size = cfg.file_size();
    let fs = Pfs::new(cfg.osts, cc_model::DiskModel::lustre_like());
    fs.create(
        "field",
        StripeLayout::round_robin(cfg.stripe_unit, cfg.osts, 0, cfg.osts),
        Box::new(MemBackend::from_bytes(field_bytes(size))),
    );
    let fs = Arc::new(fs);
    let world = World::new(cfg.nprocs, cfg.model(slowdown));
    let hints = cfg.hints(compression);
    let per_rank = {
        let fs = &fs;
        let hints = &hints;
        let cfg = *cfg;
        world.run(move |comm| {
            let file = fs.open("field").expect("exists");
            let req = cfg.request(comm.rank());
            let (bytes, report) = collective_read(comm, fs, &file, &req, hints);
            (bytes, report.end, comm.stats())
        })
    };
    let mut checksum = FNV_SEED;
    let mut end = SimTime::ZERO;
    let mut max_err = 0.0f64;
    let mut stats = Vec::with_capacity(per_rank.len());
    for (r, (bytes, e, s)) in per_rank.iter().enumerate() {
        fnv(&mut checksum, bytes);
        end = end.max(*e);
        stats.push(*s);
        // Request-buffer order follows the extent list, so element indices
        // recover from the offsets.
        let mut cursor = 0usize;
        for e in cfg.request(r).extents() {
            for i in (e.offset / 8)..(e.end() / 8) {
                let got = f64::from_le_bytes(bytes[cursor..cursor + 8].try_into().unwrap());
                max_err = max_err.max((got - field_value(i)).abs());
                cursor += 8;
            }
        }
    }
    let (logical_inter, wire_inter) = sum_inter(&stats);
    CompressOutcome {
        elapsed_secs: end.secs(),
        logical_inter,
        wire_inter,
        max_err,
        checksum,
    }
}

/// Runs the collective write of the smooth field once under `compression`
/// and inspects what actually landed on disk.
pub fn write_case(
    cfg: &CompressBenchConfig,
    compression: Compression,
    slowdown: f64,
) -> CompressOutcome {
    let size = cfg.file_size();
    let fs = Pfs::new(cfg.osts, cc_model::DiskModel::lustre_like());
    fs.create(
        "out",
        StripeLayout::round_robin(cfg.stripe_unit, cfg.osts, 0, cfg.osts),
        Box::new(MemBackend::from_bytes(vec![0u8; size as usize])),
    );
    let fs = Arc::new(fs);
    let world = World::new(cfg.nprocs, cfg.model(slowdown));
    let hints = cfg.hints(compression);
    let per_rank = {
        let fs = &fs;
        let hints = &hints;
        let cfg = *cfg;
        world.run(move |comm| {
            let file = fs.open("out").expect("exists");
            let req = cfg.request(comm.rank());
            let mut data = Vec::with_capacity((cfg.pieces_per_rank * cfg.piece_bytes) as usize);
            for e in req.extents() {
                for i in (e.offset / 8)..(e.end() / 8) {
                    data.extend_from_slice(&field_value(i).to_le_bytes());
                }
            }
            let report = collective_write(comm, fs, &file, &req, &data, hints);
            (report.end, comm.stats())
        })
    };
    let mut end = SimTime::ZERO;
    let mut stats = Vec::with_capacity(per_rank.len());
    for (e, s) in &per_rank {
        end = end.max(*e);
        stats.push(*s);
    }
    let file = fs.open("out").expect("exists");
    let (bytes, _) = fs.read_at(&file, 0, size, SimTime::ZERO);
    let mut checksum = FNV_SEED;
    fnv(&mut checksum, &bytes);
    let mut max_err = 0.0f64;
    for (i, w) in bytes.chunks_exact(8).enumerate() {
        let got = f64::from_le_bytes(w.try_into().unwrap());
        max_err = max_err.max((got - field_value(i as u64)).abs());
    }
    let (logical_inter, wire_inter) = sum_inter(&stats);
    CompressOutcome {
        elapsed_secs: end.secs(),
        logical_inter,
        wire_inter,
        max_err,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_mpiio::ErrorBound;

    fn tiny() -> CompressBenchConfig {
        CompressBenchConfig {
            nprocs: 8,
            nodes: 2,
            osts: 4,
            stripe_unit: 4 << 10,
            piece_bytes: 512,
            pieces_per_rank: 32,
            cb_stripes: 2,
        }
    }

    #[test]
    fn lossless_cells_move_identical_bytes() {
        let cfg = tiny();
        let off = read_case(&cfg, Compression::Off, 1.0);
        let lossless = read_case(&cfg, Compression::Lossless, 1.0);
        assert_eq!(off.checksum, lossless.checksum, "lossless read diverged");
        assert_eq!(off.max_err, 0.0);
        assert_eq!(lossless.max_err, 0.0);
        assert_eq!(off.logical_inter, off.wire_inter, "raw frames must not shrink");
    }

    #[test]
    fn error_bounded_cells_respect_bounds_and_cut_wire_bytes() {
        let cfg = tiny();
        // The field spans [260, 340]: the default relative bound resolves
        // to at most 1e-4 * 80 per payload.
        let bound = ErrorBound::default().resolve(260.0, 340.0);
        let mode = Compression::ErrorBounded(ErrorBound::default());
        let read = read_case(&cfg, mode, 1.0);
        assert!(read.max_err <= bound + 1e-12, "read err {:e}", read.max_err);
        assert!(read.wire_ratio() >= 3.0, "read ratio {:.2}", read.wire_ratio());
        let write = write_case(&cfg, mode, 1.0);
        // The write-back hop quantizes reconstructed values whose range
        // the shuffle hop widened by up to a bound on each side.
        let two_hop = bound + ErrorBound::default().resolve(260.0 - bound, 340.0 + bound);
        assert!(
            write.max_err <= two_hop + 1e-12,
            "write err {:e} exceeds the two-hop bound",
            write.max_err
        );
        assert!(write.wire_ratio() >= 3.0, "write ratio {:.2}", write.wire_ratio());
    }
}
