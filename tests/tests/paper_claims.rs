//! The paper's headline claims as (scaled-down, deterministic) tests.
//! These are the assertions EXPERIMENTS.md reports at full scale, pinned
//! at a small scale so regressions in the engines or models show up in
//! `cargo test`.

use cc_bench::{calibrate_ratio, run_comparison};
use cc_core::SumKernel;
use cc_model::ClusterModel;
use cc_mpiio::Hints;
use cc_workloads::ClimateWorkload;

fn setup() -> (ClimateWorkload, ClusterModel, Hints) {
    // 8 ranks, 2 nodes, finely interleaved requests, several chunks per
    // aggregator — a miniature of the Fig. 9 configuration.
    let workload = ClimateWorkload::interleaved_3d(8, 32, 2, 256, 64 << 10, 32);
    let model = ClusterModel::hopper_like(2, 4);
    let hints = Hints {
        cb_buffer_size: 256 << 10,
        aggregators_per_node: 1,
        align_domains_to: Some(workload.stripe_size),
        ..Hints::default()
    };
    (workload, model, hints)
}

fn speedup_at(ratio: f64) -> f64 {
    let (workload, base, hints) = setup();
    let model = calibrate_ratio(&workload, &base, 64, &hints, ratio);
    run_comparison(&workload, &model, 64, &SumKernel, &hints).speedup()
}

#[test]
fn collective_computing_wins_at_every_ratio() {
    // Fig. 9's baseline claim: CC never loses across the sweep.
    for ratio in [5.0, 1.0, 0.2] {
        let s = speedup_at(ratio);
        assert!(
            s > 1.0,
            "CC should beat traditional MPI at ratio {ratio}: got {s:.3}"
        );
    }
}

#[test]
fn speedup_peaks_at_balanced_ratio() {
    // Fig. 9's shape: the 1:1 point tops both a compute-heavy and an
    // I/O-heavy point.
    let peak = speedup_at(1.0);
    let compute_heavy = speedup_at(5.0);
    let io_heavy = speedup_at(0.2);
    assert!(
        peak > compute_heavy,
        "peak {peak:.3} should beat compute-heavy {compute_heavy:.3}"
    );
    assert!(
        peak > io_heavy,
        "peak {peak:.3} should beat I/O-heavy {io_heavy:.3}"
    );
    assert!(peak > 1.3, "balanced-ratio speedup {peak:.3} is too small");
}

#[test]
fn metadata_halves_from_small_to_large_buffers() {
    // Fig. 12's mechanism: when logical subsets are larger than the
    // collective buffer they get split across iterations, multiplying the
    // metadata. Contiguous 512 KB per-rank subsets make that visible.
    let workload = ClimateWorkload::synthetic_3d(8, 1, 64, 1024, 64, 1024, 64 << 10, 32);
    let model = ClusterModel::hopper_like(2, 4);
    let entries = |cb: u64| {
        let hints = Hints {
            cb_buffer_size: cb,
            ..Hints::default()
        };
        run_comparison(&workload, &model, 64, &SumKernel, &hints).metadata_entries
    };
    let small = entries(64 << 10);
    let large = entries(1 << 20);
    assert!(
        small >= 2 * large,
        "small buffers should at least double metadata: {small} vs {large}"
    );
}
