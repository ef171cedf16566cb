//! Quickstart: the paper's Fig. 6 programming model in thirty lines.
//!
//! Four ranks collectively read disjoint row blocks of a 2-D temperature
//! variable and compute the global mean *inside* the collective: the mean
//! kernel runs at the aggregators between the read phase and the shuffle
//! phase, so only tiny partial results travel.
//!
//! ```text
//! cargo run -p cc-examples --bin quickstart
//! ```

use cc_core::{object_get_vara, MeanKernel, ObjectIo, ReduceMode};
use cc_examples::{banner, make_temperature_file};
use cc_model::ClusterModel;
use cc_mpi::World;

fn main() {
    banner("collective computing quickstart");
    let (rows, cols) = (64, 256);
    // Element i holds 250 + (i mod 100): mean is analytic.
    let (fs, var) = make_temperature_file(rows, cols, |i| 250.0 + (i % 100) as f64);

    let nprocs = 4;
    let world = World::new(nprocs, ClusterModel::hopper_like(2, 2));
    let fs = &fs;
    let var = &var;
    let outcomes = world.run(move |comm| {
        let file = fs.open("demo.nc").expect("file exists");
        // Each rank selects its block of rows — the io.start/io.count of
        // the paper's object I/O — and passes the computation (a kernel)
        // into the collective read.
        let per = rows / nprocs as u64;
        let io = ObjectIo::new(
            vec![comm.rank() as u64 * per, 0],
            vec![per, cols],
        )
        .reduce(ReduceMode::AllToOne { root: 0 });
        object_get_vara(comm, fs, &file, var, &io, &MeanKernel)
    });

    let root = &outcomes[0];
    let mean = root.global.as_ref().expect("root holds the global result")[0];
    println!("global mean temperature: {mean:.3} K");
    println!(
        "virtual time: {} (aggregators read {} bytes, shuffled only {} result words)",
        root.report.end,
        outcomes.iter().map(|o| o.report.bytes_read).sum::<u64>(),
        outcomes
            .iter()
            .map(|o| o.report.result_words_shuffled)
            .sum::<u64>(),
    );

    // The same value computed directly, for comparison.
    let expect: f64 =
        (0..rows * cols).map(|i| 250.0 + (i % 100) as f64).sum::<f64>() / (rows * cols) as f64;
    assert!(
        (mean - expect).abs() < 1e-9,
        "collective mean {mean} disagrees with the direct computation {expect}"
    );
    println!("direct computation agrees: {expect:.3} K");
}
