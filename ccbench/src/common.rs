//! Reductions over the program's public reports shared by the workloads.

use cc_model::SimTime;
use cc_pfs::Pfs;
use cc_profile::{Activity, Segment};

use crate::metrics::Layers;

/// File-system counters of the `Pfs` a pass's main path used.
#[derive(Debug, Clone, Default)]
pub struct PfsTotals {
    extents_served: u64,
    bytes_read: u64,
    bytes_written: u64,
    busy: Vec<f64>,
    waited_secs: f64,
}

impl PfsTotals {
    /// Reads the counters of `fs`.
    pub fn of(fs: &Pfs) -> Self {
        let s = fs.stats();
        PfsTotals {
            extents_served: s.extents_served,
            bytes_read: s.bytes_read,
            bytes_written: s.bytes_written,
            busy: fs.per_ost_busy_secs(),
            waited_secs: fs
                .ost_snapshot(SimTime::ZERO)
                .iter()
                .map(|o| o.waited_secs)
                .sum(),
        }
    }

    /// Sets the `pfs.*` counters; `requested_read` is the bytes the pass's
    /// read requests named.
    pub fn set(&self, layers: &mut Layers, requested_read: u64) {
        let busy: f64 = self.busy.iter().sum();
        let busiest = self.busy.iter().cloned().fold(0.0, f64::max);
        let mean = busy / self.busy.len().max(1) as f64;
        layers.set("pfs.extents_served", self.extents_served as f64);
        layers.set("pfs.bytes_read", self.bytes_read as f64);
        layers.set("pfs.bytes_written", self.bytes_written as f64);
        layers.set(
            "pfs.useful_ratio",
            requested_read as f64 / self.bytes_read.max(1) as f64,
        );
        layers.set("pfs.ost_busy_virt_s", busy);
        layers.set(
            "pfs.ost_imbalance",
            if mean > 0.0 { busiest / mean } else { 1.0 },
        );
        layers.set("pfs.queue_virt_s", self.waited_secs);
    }
}

/// Virtual seconds of `Activity::Wait` segments.
pub fn wait_secs(segments: &[Segment]) -> f64 {
    segments
        .iter()
        .filter(|s| s.activity == Activity::Wait)
        .map(|s| s.duration().secs())
        .sum()
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn union_len(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut covered, mut reach) = (0.0, lo);
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Segments as `(start, end)` seconds.
pub fn intervals(segments: &[Segment]) -> Vec<(f64, f64)> {
    segments
        .iter()
        .map(|s| (s.start.secs(), s.end.secs()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let v = vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (-1.0, 0.5)];
        assert_eq!(union_len(v, 0.0, 5.5), 3.5);
        assert_eq!(union_len(vec![], 0.0, 1.0), 0.0);
    }
}
