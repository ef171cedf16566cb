//! `manytask`: 10,240 tiny analysis tasks in four arrival waves on 256
//! ranks and 64 OSTs, fused into shared collective sweeps by
//! `TaskBatch::run_fused`, against the independent per-task baseline
//! (`TaskBatch::run_independent`).
//!
//! Each task reads a 4-row, half-width window of a shared 32 MiB file;
//! neighbouring windows overlap and every fifth task repeats its
//! predecessor. The seed shuffles the submission order within each wave
//! and kernel class.

use std::sync::Arc;

use cc_array::Hyperslab;
use cc_model::{ClusterModel, DiskModel};
use cc_pfs::{backend::default_climate_value, Pfs};
use cc_service::{BatchOutcome, TaskBatch};
use cc_workloads::ManyTask;

use crate::common::{union_len, PfsTotals};
use crate::harness::{Checks, PassSummary, Scale, Setup, Workload};
use crate::metrics::Layers;
use crate::replay;
use crate::stats::{mean, CpuTimer, Rng};
use crate::trace::{Trace, Tracing};

/// Relative tolerance of task results against the oracle.
const REL: f64 = 1e-9;

/// The workload and its seeded inputs.
pub struct ManyTaskRun {
    population: ManyTask,
    model: ClusterModel,
    /// Submission order: `order[k]` is the generator index of the k-th
    /// submitted task.
    order: Vec<usize>,
    oracle: Vec<Vec<f64>>,
    oracle_host_s: f64,
}

impl ManyTaskRun {
    /// The workload at `scale` for `seed`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (population, nodes, cores) = match scale {
            Scale::Full => (ManyTask::full(10_240), 64, 4),
            Scale::Small => (ManyTask::quick(512), 8, 2),
        };
        let model = ClusterModel::hopper_like(nodes, cores);
        let per = population.tasks_per_wave();
        let mut rng = Rng::new(seed, 3);
        let mut order: Vec<usize> = (0..population.tasks).collect();
        for wave in order.chunks_mut(per) {
            // Shuffle within each kernel class. The class submitted first
            // in a wave decides which of the wave's two bins runs first,
            // which moves every task's latency by a whole bin; the
            // workload keeps the generator's class order fixed.
            let first = population.kernel(wave[0]).name();
            let split = wave.partition_point(|&i| population.kernel(i).name() == first);
            let (a, b) = wave.split_at_mut(split);
            rng.shuffle(a);
            rng.shuffle(b);
        }
        let t = CpuTimer::start();
        let oracle = (0..population.tasks)
            .map(|i| population.oracle_task(i))
            .collect();
        let oracle_host_s = t.secs();
        Self {
            population,
            model,
            order,
            oracle,
            oracle_host_s,
        }
    }

    /// A batch over a fresh file system with every task submitted in the
    /// seeded order.
    fn batch(&self, fs: Arc<Pfs>) -> TaskBatch {
        let mut batch =
            TaskBatch::new(self.model.clone(), fs).with_policy(self.population.policy());
        let mut specs: Vec<_> = self.population.specs().into_iter().map(Some).collect();
        for &i in &self.order {
            let spec = specs[i].take().expect("each task is submitted once");
            batch.submit(spec).expect("generated tasks are admissible");
        }
        batch
    }

    fn task_bytes(&self) -> u64 {
        let p = &self.population;
        p.tasks as u64 * p.task_rows * p.task_cols * 8
    }
}

/// Inputs of one pass: one admitted batch per mode.
pub struct Input {
    fused: TaskBatch,
    independent: TaskBatch,
    fs_fused: Arc<Pfs>,
}

/// What one pass returns.
pub struct Output {
    fused: BatchOutcome,
    independent: BatchOutcome,
    pfs: PfsTotals,
}

impl Workload for ManyTaskRun {
    type Input = Input;
    type Output = Output;

    fn logical_bytes(&self) -> u64 {
        // Every task's request, once fused and once independent.
        2 * self.task_bytes()
    }

    fn reference_host_s(&self) -> f64 {
        self.oracle_host_s
    }

    fn setup(&self, _pass: u64) -> Setup<Input> {
        let t = CpuTimer::start();
        let fs_fused = self.population.build_fs(DiskModel::lustre_like());
        let fs_indep = self.population.build_fs(DiskModel::lustre_like());
        let build_s = t.secs();
        Setup {
            input: Input {
                fused: self.batch(Arc::clone(&fs_fused)),
                independent: self.batch(fs_indep),
                fs_fused,
            },
            build_s,
        }
    }

    fn pass(&self, input: Input, tracing: Tracing<'_>) -> Output {
        let Input {
            fused,
            independent,
            fs_fused,
        } = input;
        let (fused, independent) = match tracing {
            Some((trace, parent)) => (
                trace.time("cc_service::TaskBatch::run_fused", Some(parent), 0, || {
                    fused.run_fused()
                }),
                trace.time(
                    "cc_service::TaskBatch::run_independent",
                    Some(parent),
                    0,
                    || independent.run_independent(),
                ),
            ),
            None => (fused.run_fused(), independent.run_independent()),
        };
        Output {
            fused,
            independent,
            pfs: PfsTotals::of(&fs_fused),
        }
    }

    fn check(&self, out: &Output, checks: &mut Checks) {
        for (mode, outcome) in [("fused", &out.fused), ("independent", &out.independent)] {
            checks.check(outcome.tasks.len() == self.order.len(), || {
                format!(
                    "{mode}: {} results for {} tasks",
                    outcome.tasks.len(),
                    self.order.len()
                )
            });
            for (task, &i) in outcome.tasks.iter().zip(&self.order) {
                let want = &self.oracle[i];
                let ok = task.value.len() == want.len()
                    && task
                        .value
                        .iter()
                        .zip(want)
                        .all(|(g, w)| (g - w).abs() <= REL * w.abs().max(1.0));
                checks.check(ok, || {
                    format!("{mode} task {i}: got {:?}, oracle {want:?}", task.value)
                });
            }
        }
    }

    fn summarize(&self, out: &Output) -> PassSummary {
        let f = &out.fused;
        let lat: Vec<f64> = f.tasks.iter().map(|t| t.latency().secs()).collect();
        let mut layers = Layers::default();
        let task_bytes: u64 = f.bins.iter().map(|b| b.task_bytes).sum();
        out.pfs.set(&mut layers, task_bytes);
        layers.set("mpiio.plan_reuse_rate", f.plan_cache.reuse_rate());
        layers.set("mpiio.plan_misses", f.plan_cache.misses as f64);
        layers.set("mpiio.tasks_per_schedule", f.tasks_per_schedule());
        let task_extents: u64 = f.bins.iter().map(|b| b.task_extents).sum();
        let fused_extents: u64 = f.bins.iter().map(|b| b.fused_extents).sum();
        layers.set(
            "mpiio.fuse_ratio",
            task_extents as f64 / fused_extents.max(1) as f64,
        );
        // The batch runs with default hints: compression off.
        layers.set("compress.wire_ratio", 1.0);
        let queued: Vec<f64> = f
            .tasks
            .iter()
            .filter_map(|t| {
                t.bin
                    .map(|b| f.bins[b].start.saturating_since(t.submitted).secs())
            })
            .collect();
        layers.set("service.queue_virt_s", mean(&queued));
        layers.set("service.cross_job_rate", f.plan_cache.cross_job_rate());
        layers.set("service.bins", f.bins.len() as f64);
        layers.set(
            "service.dedup_factor",
            task_bytes as f64 / f.bytes_read.max(1) as f64,
        );
        let makespan = f.makespan.secs();
        let bins = f
            .bins
            .iter()
            .map(|b| (b.start.secs(), b.end.secs()))
            .collect();
        layers.set(
            "trace.virt_unattributed_s",
            makespan - union_len(bins, 0.0, makespan),
        );
        PassSummary {
            virt_s: makespan,
            analysis_virt_s: makespan,
            baseline_virt_s: out.independent.makespan.secs(),
            baseline_task_p50: out.independent.latency_p50.secs(),
            query_lat: lat.clone(),
            task_lat: lat,
            layers,
        }
    }

    fn trace_reports(&self, out: &Output, trace: &mut Trace, parent: usize) {
        for b in &out.fused.bins {
            trace.virtual_span(
                "cc_service::BinReport",
                Some(parent),
                b.bin as u64,
                b.start.secs(),
                b.end.secs(),
            );
        }
        // Per-task spans once per run: they are many.
        if !trace
            .spans()
            .iter()
            .any(|s| s.name == "cc_service::TaskResult")
        {
            for t in &out.fused.tasks {
                trace.virtual_span(
                    "cc_service::TaskResult",
                    Some(parent),
                    t.id,
                    t.submitted.secs(),
                    t.finished.secs(),
                );
            }
        }
    }

    fn replays(&self, trace: &mut Trace, layers: &mut Layers) {
        let p = &self.population;
        let var = p.variable();
        let slabs: Vec<_> = (0..p.tasks)
            .map(|i| {
                let (start, count) = p.region(i);
                (&var, Hyperslab::new(start, count))
            })
            .collect();
        let (host, extents) = replay::flatten(trace, &slabs);
        layers.set("array.flatten_host_s", host);
        layers.set("array.extents", extents as f64);
        layers.set(
            "mpi.world_host_s",
            replay::world(trace, p.nprocs, &self.model),
        );

        // Every task's kernel over the values of its window, row by row.
        let span = trace.open("replay.cc_core::MapKernel::map", None, 0);
        let (mut map_host, mut map_bytes) = (0.0, 0u64);
        let mut values = Vec::new();
        for i in 0..p.tasks {
            let (start, count) = p.region(i);
            let kernel = p.kernel(i);
            let mut acc = kernel.identity();
            for r in start[0]..start[0] + count[0] {
                let first = r * p.cols + start[1];
                values.clear();
                values.extend((first..first + count[1]).map(default_climate_value));
                let t = CpuTimer::start();
                kernel.map(&mut acc, first, &values);
                map_host += t.secs();
                map_bytes += count[1] * 8;
            }
            std::hint::black_box(&acc);
        }
        trace.close(span);
        layers.set("core.map_host_s", map_host);
        layers.set("core.map_bytes", map_bytes as f64);
    }
}
