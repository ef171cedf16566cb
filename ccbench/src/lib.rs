//! End-to-end and per-layer benchmark of the collective-computing stack.
//!
//! Four workloads drive the program only through its public entry points
//! (`World::run`, `object_get_vara`, `traditional_get_vara`,
//! `collective_read`/`collective_write`, `TaskBatch::run_fused`,
//! `Service::run` and the `cc-workloads` generators), check every answer
//! against a closed-form oracle, and report metrics on two clocks: the
//! model's virtual seconds and the simulator's host seconds.

pub mod climate;
pub mod common;
pub mod harness;
pub mod manytask;
pub mod metrics;
pub mod replay;
pub mod service;
pub mod spmd;
pub mod stats;
pub mod trace;
pub mod wrf;

use harness::{measure, Outcome, RunConfig};

/// Names of the workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["wrf_slp", "climate_rw", "manytask", "service_mix"];

/// Runs workload `name`; `None` for an unknown name.
pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "wrf_slp" => measure(name, &wrf::WrfSlp::new(cfg.scale, cfg.seed), cfg),
        "climate_rw" => measure(name, &climate::ClimateRw::new(cfg.scale, cfg.seed), cfg),
        "manytask" => measure(name, &manytask::ManyTaskRun::new(cfg.scale, cfg.seed), cfg),
        "service_mix" => measure(name, &service::ServiceMix::new(cfg.scale, cfg.seed), cfg),
        _ => return None,
    })
}
