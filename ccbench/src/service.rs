//! `service_mix`: batch sweeps plus a stream of interactive ROI queries
//! through the multi-job `Service` (QoS-WFQ scheduling, a shared backbone
//! lane and the cross-job `SharedPlanCache`), against the same jobs
//! chained one after another (`Service::run_serial`).
//!
//! The queries are an open loop in virtual time: their arrivals are
//! timestamps fixed before the run, so a slow service cannot slow the
//! generator, and each query's latency counts from its due time. The seed
//! decides which ROI arrives in which slot and jitters each arrival
//! within its slot, afresh for every pass of a run.

use std::sync::Arc;

use cc_array::Hyperslab;
use cc_core::SumKernel;
use cc_model::{ClusterModel, DiskModel, SimTime, Topology};
use cc_mpiio::{Hints, OffsetList};
use cc_pfs::Pfs;
use cc_service::{JobSpec, QosClass, Service, ServiceOutcome, ServicePolicy};
use cc_workloads::MixedTraffic;

use crate::common::{union_len, PfsTotals};
use crate::harness::{Checks, PassSummary, Scale, Setup, Workload};
use crate::metrics::Layers;
use crate::replay::{self, ReadMap};
use crate::stats::{mean, CpuTimer, Rng};
use crate::trace::{Trace, Tracing};

/// Relative tolerance of job results against the oracles.
const REL: f64 = 1e-9;

/// The workload and its seeded inputs.
pub struct ServiceMix {
    traffic: MixedTraffic,
    model: ClusterModel,
    backbone: f64,
    seed: u64,
    oracle_sweep: f64,
    oracle_roi: Vec<f64>,
    oracle_host_s: f64,
}

impl ServiceMix {
    /// The workload at `scale` for `seed`.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let (mut traffic, nodes, cores, backbone) = match scale {
            Scale::Full => (MixedTraffic::full(4, 128), 16, 4, 2e10),
            Scale::Small => (MixedTraffic::quick(2, 16), 8, 2, 1e10),
        };
        // Sweeps span two nodes, queries one, so every job fits at once.
        traffic.batch_nprocs = 2 * cores;
        traffic.interactive_nprocs = cores;
        // One query per millisecond overlaps the sweeps without a growing
        // backlog: the median query sees the unloaded latency.
        traffic.interactive_spacing = SimTime::from_secs(1e-3);
        let model = ClusterModel::hopper_like(nodes, cores);
        let q = traffic.interactive_jobs;
        let t = CpuTimer::start();
        let oracle_sweep = traffic.oracle_sweep_sum();
        let oracle_roi = (0..q).map(|i| traffic.oracle_roi_sum(i)).collect();
        let oracle_host_s = t.secs();
        Self {
            traffic,
            model,
            backbone,
            seed,
            oracle_sweep,
            oracle_roi,
            oracle_host_s,
        }
    }

    /// The job population of pass `pass`, batch first: every pass draws
    /// a fresh arrival stream from the seed, so a run samples many
    /// streams. ROI `i` arrives in a random slot of its own, jittered by
    /// up to half the spacing.
    fn jobs(&self, pass: u64) -> Vec<JobSpec> {
        let batch = self.traffic.batch_jobs;
        let spacing = self.traffic.interactive_spacing.secs();
        let mut rng = Rng::new(self.seed, 4 + (pass << 8));
        let slots = rng.permutation(self.traffic.interactive_jobs);
        let mut jobs = self.traffic.jobs();
        for (spec, slot) in jobs[batch..].iter_mut().zip(slots) {
            spec.arrival = SimTime::from_secs(spacing * (slot as f64 + 1.0 + 0.5 * rng.unit()));
        }
        jobs
    }

    fn service(&self, fs: Arc<Pfs>, jobs: Vec<JobSpec>) -> Service {
        let mut svc = Service::new(self.model.clone(), fs)
            .with_policy(ServicePolicy::QosWfq)
            .with_backbone(self.backbone);
        for spec in jobs {
            svc.submit(spec).expect("generated jobs are admissible");
        }
        svc
    }

    /// Every collective step of every job: its per-rank requests and the
    /// topology of the job's world.
    fn calls(&self, jobs: &[JobSpec]) -> Vec<(Vec<OffsetList>, Topology, usize)> {
        let cores = self.model.topology.cores_per_node;
        let mut calls = Vec::new();
        for (j, spec) in jobs.iter().enumerate() {
            for step in &spec.steps {
                let requests = (0..spec.nprocs)
                    .map(|r| {
                        let io = spec.rank_io(step, r, spec.nprocs);
                        spec.var.byte_extents(&Hyperslab::new(io.start, io.count))
                    })
                    .collect();
                let topology = Topology::new(spec.nprocs.div_ceil(cores), cores);
                calls.push((requests, topology, j));
            }
        }
        calls
    }

    fn requested_bytes(&self) -> u64 {
        let t = &self.traffic;
        let sweep = t.file_rows() * t.cols * 8;
        let roi = t.roi_rows * t.cols * 8;
        t.batch_jobs as u64 * sweep + t.interactive_jobs as u64 * roi
    }
}

/// Inputs of one pass: the concurrent and the serial service.
pub struct Input {
    concurrent: Service,
    serial: Service,
    fs: Arc<Pfs>,
}

/// What one pass returns.
pub struct Output {
    concurrent: ServiceOutcome,
    serial: ServiceOutcome,
    pfs: PfsTotals,
}

impl Workload for ServiceMix {
    type Input = Input;
    type Output = Output;

    fn logical_bytes(&self) -> u64 {
        2 * self.requested_bytes()
    }

    fn reference_host_s(&self) -> f64 {
        self.oracle_host_s
    }

    fn setup(&self, pass: u64) -> Setup<Input> {
        let t = CpuTimer::start();
        let jobs = self.jobs(pass);
        let fs = self.traffic.build_fs(DiskModel::lustre_like());
        let fs_serial = self.traffic.build_fs(DiskModel::lustre_like());
        let build_s = t.secs();
        Setup {
            input: Input {
                concurrent: self.service(Arc::clone(&fs), jobs.clone()),
                serial: self.service(fs_serial, jobs),
                fs,
            },
            build_s,
        }
    }

    fn pass(&self, input: Input, tracing: Tracing<'_>) -> Output {
        let Input {
            concurrent,
            serial,
            fs,
        } = input;
        let (concurrent, serial) = match tracing {
            Some((trace, parent)) => (
                trace.time("cc_service::Service::run", Some(parent), 0, || {
                    concurrent.run()
                }),
                trace.time("cc_service::Service::run_serial", Some(parent), 0, || {
                    serial.run_serial()
                }),
            ),
            None => (concurrent.run(), serial.run_serial()),
        };
        Output {
            concurrent,
            serial,
            pfs: PfsTotals::of(&fs),
        }
    }

    fn check(&self, out: &Output, checks: &mut Checks) {
        let batch = self.traffic.batch_jobs;
        for (mode, outcome) in [("concurrent", &out.concurrent), ("serial", &out.serial)] {
            checks.check(outcome.jobs.len() == batch + self.oracle_roi.len(), || {
                format!("{mode}: {} job results", outcome.jobs.len())
            });
            for (j, job) in outcome.jobs.iter().enumerate() {
                let want = if j < batch {
                    self.oracle_sweep
                } else {
                    self.oracle_roi[j - batch]
                };
                let got = job.global.as_ref().and_then(|g| g.first().copied());
                checks.close(got.unwrap_or(f64::NAN), want, REL, || {
                    format!("{mode} job {}", job.name)
                });
            }
        }
    }

    fn summarize(&self, out: &Output) -> PassSummary {
        let c = &out.concurrent;
        let mut layers = Layers::default();
        out.pfs.set(&mut layers, self.requested_bytes());
        layers.set("mpiio.plan_reuse_rate", c.cache.reuse_rate());
        layers.set("mpiio.plan_misses", c.cache.misses as f64);
        layers.set(
            "mpiio.tasks_per_schedule",
            c.jobs.len() as f64 / c.cache.misses.max(1) as f64,
        );
        layers.set("mpiio.fuse_ratio", 1.0);
        // Jobs run with default hints: compression off.
        layers.set("compress.wire_ratio", 1.0);
        let queued: Vec<f64> = c
            .jobs
            .iter()
            .map(|j| j.started.saturating_since(j.submitted).secs())
            .collect();
        layers.set("service.queue_virt_s", mean(&queued));
        layers.set("service.cross_job_rate", c.cache.cross_job_rate());
        layers.set("service.lane_bytes", c.lane.map_or(0, |l| l.bytes) as f64);
        layers.set("service.dedup_factor", 1.0);
        let makespan = c.makespan.secs();
        let busy = c
            .jobs
            .iter()
            .map(|j| (j.started.secs(), j.finished.secs()))
            .collect();
        layers.set(
            "trace.virt_unattributed_s",
            makespan - union_len(busy, 0.0, makespan),
        );
        PassSummary {
            virt_s: makespan,
            analysis_virt_s: makespan,
            baseline_virt_s: out.serial.makespan.secs(),
            baseline_task_p50: out.serial.latency_p50.secs(),
            task_lat: c.jobs.iter().map(|j| j.latency().secs()).collect(),
            query_lat: c
                .jobs
                .iter()
                .filter(|j| j.class == QosClass::Interactive)
                .map(|j| j.latency().secs())
                .collect(),
            layers,
        }
    }

    fn trace_reports(&self, out: &Output, trace: &mut Trace, parent: usize) {
        for j in &out.concurrent.jobs {
            trace.virtual_span(
                "cc_service::JobResult",
                Some(parent),
                j.id,
                j.submitted.secs(),
                j.finished.secs(),
            );
        }
    }

    fn replays(&self, trace: &mut Trace, layers: &mut Layers) {
        let jobs = self.jobs(0);
        let calls = self.calls(&jobs);
        let var = self.traffic.variable();
        let slabs: Vec<_> = jobs
            .iter()
            .flat_map(|spec| {
                spec.steps.iter().flat_map(move |step| {
                    (0..spec.nprocs).map(move |r| {
                        let io = spec.rank_io(step, r, spec.nprocs);
                        (&spec.var, Hyperslab::new(io.start, io.count))
                    })
                })
            })
            .collect();
        let (host, extents) = replay::flatten(trace, &slabs);
        layers.set("array.flatten_host_s", host);
        layers.set("array.extents", extents as f64);
        layers.set(
            "mpi.world_host_s",
            replay::world(trace, self.traffic.batch_nprocs, &self.model),
        );
        let fs = self.traffic.build_fs(DiskModel::lustre_like());
        let files: Vec<_> = jobs
            .iter()
            .map(|j| fs.open(&j.file).expect("build_fs created every job's file"))
            .collect();
        // Every file shares one stripe geometry, so one set of hints fits.
        let hints = replay::engine_hints(&Hints::default(), &files[0]);
        let plan_calls: Vec<_> = calls
            .iter()
            .map(|(r, t, _)| (r.clone(), t.clone()))
            .collect();
        let (host, schedules) = replay::plan(trace, &plan_calls, &hints);
        layers.set("mpiio.plan_host_s", host);
        let mut rm = ReadMap::default();
        for ((_, _, j), schedule) in calls.iter().zip(&schedules) {
            rm = rm + replay::read_and_map(trace, &fs, &files[*j], schedule, &var, &SumKernel);
        }
        layers.set("pfs.read_host_s", rm.read_host_s);
        layers.set("core.map_host_s", rm.map_host_s);
        layers.set("core.map_bytes", rm.map_bytes as f64);
    }
}
