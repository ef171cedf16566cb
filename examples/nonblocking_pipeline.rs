//! The non-blocking pipeline, dissected.
//!
//! This example exposes what the paper's Fig. 7 runtime actually does:
//! it runs the same analysis three ways — traditional MPI (`io.block =
//! true`), collective computing staged through one buffer
//! (`PipelineDepth::Sequential`: read and map strictly alternate), and
//! pipelined collective computing — and prints an aggregator's
//! per-iteration read/map timeline so the overlap is visible.
//!
//! ```text
//! cargo run --release -p cc-examples --bin nonblocking_pipeline
//! ```

use cc_core::{object_get_vara, ObjectIo, ReduceMode, SumKernel};
use cc_examples::banner;
use cc_model::{ClusterModel, SimTime};
use cc_mpi::World;
use cc_mpiio::{Hints, PipelineDepth};
use cc_workloads::ClimateWorkload;

fn run(
    workload: &ClimateWorkload,
    model: &ClusterModel,
    blocking_object: bool,
    depth: PipelineDepth,
) -> (SimTime, Vec<(SimTime, SimTime)>) {
    let fs = workload.build_fs(40, model.disk.clone());
    let world = World::new(workload.nprocs(), model.clone());
    let fs = &fs;
    let outcomes = world.run(move |comm| {
        let file = fs.open(ClimateWorkload::FILE).expect("created");
        let slab = workload.slab(comm.rank());
        let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
            .blocking(blocking_object)
            .hints(Hints {
                cb_buffer_size: 256 << 10,
                pipeline_depth: depth,
                ..Hints::default()
            })
            .reduce(ReduceMode::AllToOne { root: 0 });
        let out = object_get_vara(comm, fs, &file, workload.var(), &io, &SumKernel);
        (
            out.report.end,
            out.report
                .iterations
                .iter()
                .map(|i| (i.read, i.map))
                .collect::<Vec<_>>(),
        )
    });
    let end = outcomes.iter().map(|o| o.0).max().expect("nonempty");
    let timeline = outcomes
        .into_iter()
        .map(|o| o.1)
        .find(|t| !t.is_empty())
        .unwrap_or_default();
    (end, timeline)
}

fn main() {
    banner("blocking vs non-blocking collective computing");
    // 8 ranks, interleaved requests, and a compute cost comparable to the
    // read cost — the regime where overlap matters most (paper Fig. 9).
    let workload = ClimateWorkload::interleaved_3d(8, 32, 4, 256, 256 << 10, 16);
    let mut model = ClusterModel::hopper_like(2, 4);
    model.cpu.map_cost_per_byte = 6.0 / model.disk.ost_bandwidth;

    let (t_mpi, _) = run(&workload, &model, true, PipelineDepth::Unbounded);
    let (t_block, _) = run(&workload, &model, false, PipelineDepth::Sequential);
    let (t_nb, timeline) = run(&workload, &model, false, PipelineDepth::Unbounded);

    println!("traditional MPI (read, then compute, then reduce): {t_mpi}");
    println!("collective computing, one staging buffer:          {t_block}");
    println!("collective computing, pipelined (non-blocking):    {t_nb}");
    assert!(
        t_nb < t_block,
        "pipelining must beat one staging buffer: {t_nb} >= {t_block}"
    );
    println!(
        "\noverlap gain over blocking CC: {:.2}x; over traditional: {:.2}x",
        t_block.secs() / t_nb.secs(),
        t_mpi.secs() / t_nb.secs()
    );

    println!("\naggregator 0 pipeline (first 10 iterations):");
    println!("{:>5}  {:>10}  {:>10}", "iter", "read", "map");
    for (i, (read, map)) in timeline.iter().take(10).enumerate() {
        println!("{i:>5}  {read:>10}  {map:>10}");
    }
    println!(
        "\n(iteration i's map runs concurrently with iteration i+1's read,\n\
         the mechanism of the paper's Fig. 7; with one staging buffer the\n\
         same work strictly alternates.)"
    );
}
