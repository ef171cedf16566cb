//! Replicated collective state: every collective's request table and plan
//! lookup are computed once per world and shared by all rank threads.
//! These tests pin what sharing them must not change — each rank's
//! plan-cache accounting, exactly — and that the once-per-world slots are
//! evicted as a sweep goes on.

use std::sync::Arc;

use cc_array::Shape;
use cc_core::{iterative_get_vara, ObjectIo, SumKernel};
use cc_integration::{build_var_fs, oracle_sum, test_model};
use cc_model::{ClusterModel, DiskModel};
use cc_mpi::World;
use cc_mpiio::PlanCacheStats;
use cc_service::TaskBatch;
use cc_workloads::ManyTask;

const STEPS: u64 = 64;
const ROWS: u64 = 32;
const COLS: u64 = 32;
const PER_RANK_ROWS: u64 = 2;

/// `(start row, columns)` of step `s`, cycling over four kinds of step:
/// the full-width shape at row 0 (compiled once, then a hit), the same
/// shape 16 rows on (a translation), a narrower shape never seen before
/// (a miss), and row 0 again (a hit).
fn step(s: u64) -> (u64, u64) {
    match s % 4 {
        0 | 3 => (0, COLS),
        1 => (16, COLS),
        _ => (3, 1 + s / 4),
    }
}

/// A 64-step `iterative_get_vara` on 2 nodes x 2 cores: every rank's
/// private plan cache sees hits, translations and misses, and must count
/// exactly what it counted when every rank ran its own lookup. After the
/// sweep no slot may stay live.
#[test]
fn iterative_sweep_counts_exactly_and_leaves_no_slots() {
    let nprocs = 4;
    let shape = Shape::new(vec![ROWS, COLS]);
    let (fs, var) = build_var_fs(&shape, 512, 4, 4);
    let world = World::new(nprocs, test_model(2, 2));
    let outs = world.run(|comm| {
        let file = fs.open("t.nc").expect("exists");
        let steps: Vec<_> = (0..STEPS)
            .map(|s| {
                let (row, cols) = step(s);
                let row = row + comm.rank() as u64 * PER_RANK_ROWS;
                (&var, ObjectIo::new(vec![row, 0], vec![PER_RANK_ROWS, cols]))
            })
            .collect();
        let out = iterative_get_vara(comm, &fs, &file, &steps, &SumKernel);
        comm.barrier();
        (out, comm.live_slots())
    });
    let expected = PlanCacheStats {
        hits: 31,
        translations: 16,
        misses: 17,
        ..PlanCacheStats::default()
    };
    for (rank, (out, live)) in outs.iter().enumerate() {
        assert_eq!(out.plan_cache, expected, "rank {rank} plan-cache counts");
        assert_eq!(*live, 0, "rank {rank}: slots outlived the sweep");
    }
    let want: f64 = (0..STEPS)
        .map(|s| {
            let (row, cols) = step(s);
            let slab =
                cc_array::Hyperslab::new(vec![row, 0], vec![PER_RANK_ROWS * nprocs as u64, cols]);
            oracle_sum(&shape, &slab)
        })
        .sum();
    let got = outs[0].0.global.as_ref().expect("root folds the sweep")[0];
    assert!(
        (got - want).abs() <= 1e-9 * want.abs().max(1.0),
        "{got} != {want}"
    );
}

/// A fused many-task batch on 16 ranks (hierarchical collectives) counts
/// exactly what it counted when every rank looked its plans up itself:
/// per compile, one rank misses and the other fifteen hit; every rank of
/// a shifted bin translates, across bins (each bin is its own job).
#[test]
fn fused_many_task_batch_counts_exactly() {
    let pop = ManyTask::quick(512);
    let fs = pop.build_fs(DiskModel::lustre_like());
    let mut batch =
        TaskBatch::new(ClusterModel::hopper_like(8, 2), Arc::clone(&fs)).with_policy(pop.policy());
    for spec in pop.specs() {
        batch.submit(spec).expect("generated tasks admit");
    }
    let out = batch.run_fused();
    assert_eq!(
        out.plan_cache,
        PlanCacheStats {
            hits: 30,
            translations: 96,
            misses: 2,
            cross_job_hits: 0,
            cross_job_translations: 96,
            fused_tasks: 512,
        }
    );
}
