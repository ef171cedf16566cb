//! The measurement loop shared by every workload.
//!
//! One run repeats *passes* until `--seconds` have elapsed (and at least a
//! minimum number ran). Each pass sets up afresh — OST bookings persist
//! inside one `Pfs`, so no pass may reuse another's file system — then
//! runs the workload's main path and its baseline under the host timer,
//! then checks every answer outside the timer.
//!
//! Host-time metrics are medians over the passes, so one pass slowed by
//! a neighbour cannot move them. Virtual-time metrics are means over the
//! passes: today the same inputs land on a few discrete virtual outcomes
//! (bookings commit in host-thread order), and a median jumps between
//! those modes from run to run where a mean moves smoothly. The spread
//! across passes is reported beside them, so the drift stays visible.
//!
//! With `--trace 1` every second pass is traced (spans around each call
//! the benchmark makes into the program) and, after the passes, each
//! workload replays single layers on its own inputs to time them alone.

use std::time::{Duration, Instant};

use crate::metrics::{Layers, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{mean, median, peak_rss_mb, percentile, rel_spread, CpuTimer};
use crate::trace::{Trace, Tracing};

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A reduced configuration for the benchmark's own tests.
    Small,
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measuring budget.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Counts correctness checks instead of panicking, so failure shares can
/// be compared across runs.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    first_failures: Vec<String>,
}

impl Checks {
    /// Records one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failures.len() < 8 {
                self.first_failures.push(what());
            }
        }
    }

    /// Records that `got` matches `want` to `rel` relative error.
    pub fn close(&mut self, got: f64, want: f64, rel: f64, what: impl FnOnce() -> String) {
        let ok = (got - want).abs() <= rel * want.abs().max(1.0);
        self.check(ok, || format!("{}: got {got}, want {want}", what()));
    }

    /// Checks attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }
}

/// What set-up produced, with the part of its host time spent in the
/// workload generators and `build_fs`.
pub struct Setup<I> {
    /// Inputs of one pass.
    pub input: I,
    /// Host seconds of generators and file-system builds.
    pub build_s: f64,
}

/// The numbers one pass contributes.
#[derive(Debug, Default)]
pub struct PassSummary {
    /// Makespan of the main path, virtual seconds.
    pub virt_s: f64,
    /// Makespan of the analysis on the main path (`virt_s` without the
    /// write-back), virtual seconds: what the paper's speedup compares.
    pub analysis_virt_s: f64,
    /// Makespan of the workload's baseline, virtual seconds.
    pub baseline_virt_s: f64,
    /// Median per-task latency of the baseline, virtual seconds.
    pub baseline_task_p50: f64,
    /// Per-task latencies, virtual seconds.
    pub task_lat: Vec<f64>,
    /// Per-query latencies, virtual seconds.
    pub query_lat: Vec<f64>,
    /// Per-layer values taken from the program's reports.
    pub layers: Layers,
}

/// One workload of the benchmark.
pub trait Workload {
    /// Inputs of one pass: fresh file systems, specs, calibrated model.
    type Input;
    /// What one pass returns.
    type Output;

    /// Logical bytes the requests of one pass name (reads plus writes).
    fn logical_bytes(&self) -> u64;
    /// Host seconds the single-threaded reference scan took.
    fn reference_host_s(&self) -> f64;
    /// Builds the inputs of pass `pass` (0, 1, ...).
    fn setup(&self, pass: u64) -> Setup<Self::Input>;
    /// Runs the main path and the baseline (timed).
    fn pass(&self, input: Self::Input, tracing: Tracing<'_>) -> Self::Output;
    /// Checks every answer of a pass.
    fn check(&self, out: &Self::Output, checks: &mut Checks);
    /// Reduces a pass to its numbers.
    fn summarize(&self, out: &Self::Output) -> PassSummary;
    /// Adds the workload's report spans (virtual time) to the trace.
    fn trace_reports(&self, _out: &Self::Output, _trace: &mut Trace, _parent: usize) {}
    /// Times single layers on the workload's inputs (traced run only).
    fn replays(&self, trace: &mut Trace, layers: &mut Layers);
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// First failure messages.
    pub failures: Vec<String>,
    /// End-to-end metrics (every name in [`END_TO_END`]).
    pub end_to_end: Vec<(MetricDef, f64)>,
    /// Per-layer metrics (every name in [`PER_LAYER`]); empty unless traced.
    pub per_layer: Vec<(MetricDef, f64)>,
    /// Human-readable lines for the report printed before the result.
    pub notes: Vec<String>,
    /// The run's spans.
    pub trace: Trace,
}

/// Host CPU seconds per call of `f`, repeated until at least `min_total`
/// has passed (and at least three times), so even a microsecond-scale
/// layer is timed well above clock resolution.
pub fn time_per_call(min_total: Duration, mut f: impl FnMut()) -> f64 {
    let begin = Instant::now();
    let cpu = CpuTimer::start();
    let mut calls = 0u32;
    while calls < 3 || begin.elapsed() < min_total {
        f();
        calls += 1;
    }
    cpu.secs() / calls as f64
}

/// Runs a workload for the configured budget and reduces its passes to
/// the benchmark's metrics.
pub fn measure<W: Workload>(name: &str, w: &W, cfg: &RunConfig) -> Outcome {
    let mut trace = Trace::new();
    let mut checks = Checks::default();
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let min_passes = match (cfg.scale, cfg.trace) {
        (Scale::Small, false) => 1,
        (Scale::Small, true) => 2,
        (Scale::Full, false) => 3,
        (Scale::Full, true) => 4,
    };
    struct Sample {
        setup_s: f64,
        build_s: f64,
        host_s: f64,
        wall_s: f64,
        traced: bool,
        summary: PassSummary,
    }
    let mut samples: Vec<Sample> = Vec::new();
    let begin = Instant::now();
    while samples.len() < min_passes || begin.elapsed() < budget {
        let traced = cfg.trace && samples.len() % 2 == 1;
        let t0 = CpuTimer::start();
        let setup = w.setup(samples.len() as u64);
        let setup_s = t0.secs();
        let span = traced.then(|| trace.open(&format!("{name}.pass"), None, samples.len() as u64));
        let t1 = CpuTimer::start();
        let wall = Instant::now();
        let out = w.pass(setup.input, span.map(|p| (&mut trace, p)));
        let host_s = t1.secs();
        let wall_s = wall.elapsed().as_secs_f64();
        if let Some(p) = span {
            trace.close(p);
            w.trace_reports(&out, &mut trace, p);
        }
        let summary = w.summarize(&out);
        w.check(&out, &mut checks);
        drop(out);
        samples.push(Sample {
            setup_s,
            build_s: setup.build_s,
            host_s,
            wall_s,
            traced,
            summary,
        });
    }

    let col = |f: &dyn Fn(&Sample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    let mb = w.logical_bytes() as f64 / 1e6;
    let host_of = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.host_s)
            .collect()
    };
    let (untraced_host, traced_host) = (host_of(false), host_of(true));
    let host_mb_per_s = mb / median(&untraced_host);
    let virt = col(&|s| s.summary.virt_s);
    let base = col(&|s| s.summary.baseline_virt_s);
    let base_p50 = col(&|s| s.summary.baseline_task_p50);
    let speedup = mean(&base) / mean(&col(&|s| s.summary.analysis_virt_s));
    let p = |lat: &dyn Fn(&Sample) -> &Vec<f64>, q: f64| -> f64 {
        mean(&col(&|s| percentile(lat(s), q)))
    };
    let values = [
        ("host_mb_per_s", host_mb_per_s),
        ("virt_s", mean(&virt)),
        ("task_p50_virt_s", p(&|s| &s.summary.task_lat, 50.0)),
        ("task_p99_virt_s", p(&|s| &s.summary.task_lat, 99.0)),
        ("query_p50_virt_s", p(&|s| &s.summary.query_lat, 50.0)),
        ("query_p90_virt_s", p(&|s| &s.summary.query_lat, 90.0)),
        ("setup_s", median(&col(&|s| s.setup_s))),
        ("peak_rss_mb", peak_rss_mb().unwrap_or(0.0)),
    ];
    let end_to_end: Vec<(MetricDef, f64)> = END_TO_END
        .iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .expect("every end-to-end metric is computed")
                .1;
            (*d, v)
        })
        .collect();

    let mut notes = vec![
        format!(
            "passes: {} ({} traced), {:.1} logical MB per pass, seed {}",
            samples.len(),
            traced_host.len(),
            mb,
            cfg.seed
        ),
        format!(
            "wall clock: {:.1} MB/s over the median pass ({:.3} s), {:.2} CPU s per wall s",
            mb / median(&col(&|s| s.wall_s)),
            median(&col(&|s| s.wall_s)),
            median(&untraced_host) / median(&col(&|s| s.wall_s))
        ),
        drift_note("virt_s", &virt),
        drift_note("baseline_virt_s", &base),
        drift_note("baseline_task_p50_virt_s", &base_p50),
        format!(
            "speedup (baseline over analysis makespan, the paper's metric, not gated): {speedup:.3}"
        ),
        format!(
            "samples: {} task latencies, {} query latencies per pass",
            samples[0].summary.task_lat.len(),
            samples[0].summary.query_lat.len()
        ),
    ];

    let mut per_layer = Vec::new();
    if cfg.trace {
        let mut layers = Layers::default();
        // Virtual times and counts do not depend on tracing: average
        // them over every pass.
        for d in PER_LAYER {
            let vals: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.summary.layers.get(d.name))
                .collect();
            if !vals.is_empty() {
                layers.set(d.name, mean(&vals));
                if d.name.ends_with("_virt_s") {
                    notes.push(drift_note(d.name, &vals));
                }
            }
        }
        layers.set("workloads.build_host_s", median(&col(&|s| s.build_s)));
        layers.set("ref.serial_scan_host_s", w.reference_host_s());
        layers.set("core.baseline_virt_s", mean(&base));
        layers.set("core.baseline_task_p50_virt_s", mean(&base_p50));
        layers.set("drift.baseline_task_p50_spread", rel_spread(&base_p50));
        layers.set("core.speedup", speedup);
        layers.set("drift.virt_s_spread", rel_spread(&virt));
        layers.set("drift.baseline_virt_s_spread", rel_spread(&base));
        layers.set(
            "check.fail_frac",
            checks.failed() as f64 / checks.attempted().max(1) as f64,
        );
        layers.set(
            "trace.overhead",
            median(&untraced_host) / median(&traced_host),
        );
        w.replays(&mut trace, &mut layers);
        per_layer = PER_LAYER
            .iter()
            .map(|d| (*d, layers.get(d.name).unwrap_or(0.0)))
            .collect();
        notes.push(format!("spans recorded: {}", trace.spans().len()));
    }

    Outcome {
        attempted: checks.attempted(),
        failed: checks.failed(),
        failures: checks.first_failures,
        end_to_end,
        per_layer,
        notes,
        trace,
    }
}

/// The drift register's line for one virtual-time field: its range and
/// every distinct value the passes produced.
fn drift_note(name: &str, values: &[f64]) -> String {
    let mut distinct: Vec<f64> = values.to_vec();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    let shown: Vec<String> = distinct
        .iter()
        .take(12)
        .map(|v| format!("{v:.6}"))
        .collect();
    format!(
        "drift {name}: mean {:.6}, min {:.6}, max {:.6}, spread {:.3}, {} distinct values [{}{}]",
        mean(values),
        distinct.first().copied().unwrap_or(0.0),
        distinct.last().copied().unwrap_or(0.0),
        rel_spread(values),
        distinct.len(),
        shown.join(", "),
        if distinct.len() > 12 { ", ..." } else { "" }
    )
}

/// The result line: one JSON object with the checks and either the
/// end-to-end or (traced) the per-layer metrics.
pub fn result_json(out: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(*v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// A finite JSON number with all its digits (non-finite values read 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
