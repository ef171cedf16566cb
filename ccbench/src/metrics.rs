//! The benchmark's metric names, units and directions, in one place.
//!
//! Every name says which clock it uses: `_virt_s` is the model's virtual
//! time (what CC or two-phase would cost on the modelled machine), `_host_s`
//! and `setup_s` are host time (what the simulator spends computing it).

use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the system sees, printed with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    hi("host_mb_per_s", "MB/s"),
    lo("virt_s", "s"),
    lo("task_p50_virt_s", "s"),
    lo("task_p99_virt_s", "s"),
    lo("query_p50_virt_s", "s"),
    lo("query_p90_virt_s", "s"),
    lo("setup_s", "s"),
    lo("peak_rss_mb", "MB"),
];

/// Single layers, printed with `--trace 1`. A layer a workload does not
/// exercise, or whose work the workload's entry point does not expose,
/// reads 0 (or 1 for a ratio whose mechanism is off).
pub const PER_LAYER: &[MetricDef] = &[
    // cc-workloads
    lo("workloads.build_host_s", "s"),
    // cc-array
    lo("array.flatten_host_s", "s"),
    lo("array.extents", "count"),
    // cc-mpi
    lo("mpi.world_host_s", "s"),
    lo("mpi.msgs_inter", "count"),
    lo("mpi.msgs_intra", "count"),
    lo("mpi.bytes_inter", "bytes"),
    lo("mpi.bytes_intra", "bytes"),
    lo("mpi.wait_virt_s", "s"),
    // cc-pfs
    lo("pfs.extents_served", "count"),
    lo("pfs.bytes_read", "bytes"),
    lo("pfs.bytes_written", "bytes"),
    hi("pfs.useful_ratio", "ratio"),
    lo("pfs.ost_busy_virt_s", "s"),
    lo("pfs.ost_imbalance", "ratio"),
    lo("pfs.queue_virt_s", "s"),
    lo("pfs.read_host_s", "s"),
    // cc-mpiio
    lo("mpiio.exchange_virt_s", "s"),
    lo("mpiio.exchange_host_s", "s"),
    lo("mpiio.plan_host_s", "s"),
    lo("mpiio.read_virt_s", "s"),
    lo("mpiio.shuffle_virt_s", "s"),
    lo("mpiio.write_virt_s", "s"),
    lo("mpiio.writes_issued", "count"),
    hi("mpiio.plan_reuse_rate", "ratio"),
    lo("mpiio.plan_misses", "count"),
    hi("mpiio.tasks_per_schedule", "count"),
    hi("mpiio.fuse_ratio", "ratio"),
    // cc-compress
    hi("compress.wire_ratio", "ratio"),
    lo("compress.codec_host_s", "s"),
    // cc-core
    lo("core.read_virt_s", "s"),
    lo("core.map_virt_s", "s"),
    lo("core.local_reduction_virt_s", "s"),
    lo("core.metadata_entries", "count"),
    lo("core.result_words_shuffled", "count"),
    lo("core.baseline_virt_s", "s"),
    lo("core.baseline_task_p50_virt_s", "s"),
    lo("core.map_host_s", "s"),
    lo("core.map_bytes", "bytes"),
    hi("core.speedup", "ratio"),
    // cc-service
    lo("service.queue_virt_s", "s"),
    hi("service.cross_job_rate", "ratio"),
    lo("service.lane_bytes", "bytes"),
    lo("service.bins", "count"),
    hi("service.dedup_factor", "ratio"),
    // reference, checks, drift and the trace itself
    lo("ref.serial_scan_host_s", "s"),
    lo("check.fail_frac", "ratio"),
    lo("drift.virt_s_spread", "ratio"),
    lo("drift.baseline_virt_s_spread", "ratio"),
    lo("drift.baseline_task_p50_spread", "ratio"),
    lo("trace.overhead", "ratio"),
    lo("trace.virt_unattributed_s", "s"),
];

/// Looks a per-layer metric up by name.
///
/// # Panics
/// Panics on a name missing from [`PER_LAYER`] — a typo in the benchmark.
pub fn per_layer_def(name: &str) -> MetricDef {
    *PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("{name:?} is not a per-layer metric"))
}

/// Per-layer values of one pass or one run, keyed by metric name.
#[derive(Debug, Clone, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name` (which must be in [`PER_LAYER`]).
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(per_layer_def(name).name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate {}", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(d.unit.len() <= 16);
        }
    }

    #[test]
    #[should_panic(expected = "not a per-layer metric")]
    fn unknown_layer_names_panic() {
        Layers::default().set("pfs.typo", 1.0);
    }
}
