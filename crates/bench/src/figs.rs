//! One runner per table/figure of the paper (see DESIGN.md §3).

use cc_core::{object_get_vara, MinLocKernel, ObjectIo, ReduceMode, SumKernel};
use cc_model::{ClusterModel, SimTime};
use cc_mpi::World;
use cc_mpiio::{collective_read, independent_read, Hints};
use cc_profile::{CpuProfile, Segment, Table};
use cc_workloads::incite::INCITE_PROJECTS;
use cc_workloads::{ClimateWorkload, WrfGrid, WrfWorkload};

use crate::runner::{calibrate_ratio, run_comparison, run_comparison_trials, scaled_model};
use crate::Scale;

fn fmt(v: f64) -> String {
    format!("{v:.3}")
}

fn fmt_t(t: SimTime) -> String {
    format!("{:.4}", t.secs())
}

// ---------------------------------------------------------------- Table I

/// Table I: INCITE application data requirements.
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table I: Data requirements of representative INCITE applications at ALCF",
        &["project", "online_tb", "offline_tb"],
    );
    for p in INCITE_PROJECTS {
        t.row(&[
            p.project.to_string(),
            format!("{}", p.online_tb),
            format!("{}", p.offline_tb),
        ]);
    }
    t
}

// ----------------------------------------------------------------- Fig. 1

/// The Fig. 1 configuration (scaled): 72 ranks on 6 nodes x 12 cores with
/// 6 aggregators per node reading an interleaved 4-D subset of the 429 TB
/// (virtual) climate variable; the per-iteration read and shuffle times of
/// the two-phase protocol are profiled.
pub fn fig01_workload(scale: Scale) -> (ClimateWorkload, ClusterModel, Hints) {
    let (nprocs, shrink) = match scale {
        Scale::Quick => (24, 10),
        Scale::Full => (72, 2),
    };
    let workload = ClimateWorkload::fig1(nprocs, shrink);
    let mut model = ClusterModel::hopper_like(nprocs.div_ceil(12), 12);
    // Paper magnitudes: per-iteration times of a 40-OST Lustre volume.
    model = scaled_model(&model, 64.0);
    let hints = Hints {
        cb_buffer_size: 1 << 20,
        aggregators_per_node: 6,
        align_domains_to: Some(workload.stripe_size),
        ..Hints::default()
    };
    (workload, model, hints)
}

/// Fig. 1: per-iteration read vs shuffle time of two-phase collective I/O.
pub fn fig01(scale: Scale) -> Table {
    let (workload, model, hints) = fig01_workload(scale);
    let fs = workload.build_fs(156, model.disk.clone());
    let world = World::new(workload.nprocs(), model);
    let fs = &fs;
    let workload_ref = &workload;
    let hints_ref = &hints;
    let reports = world.run(move |comm| {
        let file = fs.open(ClimateWorkload::FILE).expect("created");
        let request = workload_ref.var().byte_extents(workload_ref.slab(comm.rank()));
        collective_read(comm, fs, &file, &request, hints_ref).1
    });

    let mut t = Table::new(
        "Fig. 1: I/O profiling of two-phase collective read (aggregator 0, then summary)",
        &["iteration", "read_s", "shuffle_s"],
    );
    // Show the aggregator with the most shuffle traffic (aggregators
    // whose domain mostly serves their own rank barely shuffle).
    let agg0 = reports
        .iter()
        .filter(|r| !r.iterations.is_empty())
        .max_by(|a, b| a.shuffle_total().cmp(&b.shuffle_total()))
        .expect("at least one aggregator");
    for (i, it) in agg0.iterations.iter().enumerate().take(40) {
        t.row(&[i.to_string(), fmt_t(it.read), fmt_t(it.shuffle)]);
    }
    let (mut read_total, mut shuffle_total, mut iters) = (SimTime::ZERO, SimTime::ZERO, 0usize);
    for r in &reports {
        read_total += r.read_total();
        shuffle_total += r.shuffle_total();
        iters += r.iterations.len();
    }
    t.row(&[
        format!("ALL({iters} iters)"),
        fmt_t(read_total),
        fmt_t(shuffle_total),
    ]);
    let overhead = 100.0 * shuffle_total.secs() / (read_total + shuffle_total).secs().max(1e-12);
    t.row(&[
        "shuffle_overhead_%".into(),
        String::new(),
        fmt(overhead),
    ]);
    t
}

// ------------------------------------------------------------- Figs. 2-3

fn cpu_profile_table(title: &str, segments: Vec<Segment>, horizon: SimTime) -> Table {
    let bins = 16usize;
    let width = SimTime::from_secs((horizon.secs() / bins as f64).max(1e-9));
    let profile = CpuProfile::from_segments(segments, width, horizon);
    let mut t = Table::new(title, &["t_bin_s", "user_%", "sys_%", "wait_%"]);
    for (i, (u, s, w)) in profile.percentages().iter().enumerate() {
        t.row(&[
            fmt(width.secs() * i as f64),
            fmt(*u),
            fmt(*s),
            fmt(*w),
        ]);
    }
    let (u, s, w) = profile.overall();
    t.row(&["OVERALL".into(), fmt(u), fmt(s), fmt(w)]);
    t
}

/// Fig. 2: CPU profile (user/sys/wait) during two-phase collective I/O.
pub fn fig02(scale: Scale) -> Table {
    let (workload, model, hints) = fig01_workload(scale);
    let fs = workload.build_fs(156, model.disk.clone());
    let world = World::new(workload.nprocs(), model);
    let fs = &fs;
    let workload_ref = &workload;
    let hints_ref = &hints;
    let reports = world.run(move |comm| {
        let file = fs.open(ClimateWorkload::FILE).expect("created");
        let request = workload_ref.var().byte_extents(workload_ref.slab(comm.rank()));
        collective_read(comm, fs, &file, &request, hints_ref).1
    });
    let horizon = reports.iter().map(|r| r.end).max().expect("nonempty");
    let segments = reports.into_iter().flat_map(|r| r.segments).collect();
    cpu_profile_table(
        "Fig. 2: CPU profiling of two-phase collective I/O",
        segments,
        horizon,
    )
}

/// Fig. 3: CPU profile during independent I/O on the same request set.
pub fn fig03(scale: Scale) -> Table {
    let (workload, model, _) = fig01_workload(scale);
    let fs = workload.build_fs(156, model.disk.clone());
    let world = World::new(workload.nprocs(), model);
    let fs = &fs;
    let workload_ref = &workload;
    let reports = world.run(move |comm| {
        let file = fs.open(ClimateWorkload::FILE).expect("created");
        let request = workload_ref.var().byte_extents(workload_ref.slab(comm.rank()));
        independent_read(comm, fs, &file, &request).1
    });
    let horizon = reports.iter().map(|r| r.end).max().expect("nonempty");
    let segments = reports.into_iter().flat_map(|r| r.segments).collect();
    cpu_profile_table(
        "Fig. 3: CPU profiling of independent I/O",
        segments,
        horizon,
    )
}

// ----------------------------------------------------------------- Fig. 9

/// The Figs. 9/11/12 benchmark cluster: 5 nodes x 24 cores, one aggregator
/// per node (the paper's default), 800 GB virtual / scaled-real 3-D
/// climate variable.
fn fig09_workload(scale: Scale) -> (ClimateWorkload, ClusterModel, Hints) {
    let nprocs = match scale {
        Scale::Quick => 24,
        Scale::Full => 120,
    };
    // Finely interleaved: every ~1 MB chunk of the file carries an 8 KB
    // piece of (nearly) every rank, so the shuffle phase scatters wide —
    // the paper's access pattern. Per rank: 128 x 2 x 512 f64 = 1 MB.
    // 256 KB stripes spread every chunk over 4 OSTs, keeping per-OST load
    // even at this (scaled-down) file size.
    let workload = ClimateWorkload::interleaved_3d(nprocs, 128, 2, 512, 256 << 10, 156);
    let model = ClusterModel::hopper_like(nprocs.div_ceil(24), 24);
    let hints = Hints {
        cb_buffer_size: 1 << 20,
        aggregators_per_node: 1,
        align_domains_to: Some(workload.stripe_size),
        ..Hints::default()
    };
    (workload, model, hints)
}

/// Fig. 9: speedup of collective computing over traditional MPI across
/// computation:I/O ratios 10:1 .. 1:10 (paper: avg 1.57x, peak 2.44x at
/// 1:1, I/O-heavy side better than compute-heavy side).
pub fn fig09(scale: Scale) -> Table {
    let (workload, base, hints) = fig09_workload(scale);
    let ratios: &[(f64, &str)] = &[
        (10.0, "10:1"),
        (5.0, "5:1"),
        (2.0, "2:1"),
        (1.0, "1:1"),
        (0.5, "1:2"),
        (0.2, "1:5"),
        (0.1, "1:10"),
    ];
    let mut t = Table::new(
        "Fig. 9: speedup vs computation:I/O ratio (CC over traditional MPI)",
        &["ratio", "t_mpi_s", "t_cc_s", "speedup"],
    );
    let mut speedups = Vec::new();
    for &(ratio, label) in ratios {
        let model = calibrate_ratio(&workload, &base, 156, &hints, ratio);
        let c = run_comparison_trials(&workload, &model, 156, &SumKernel, &hints, 3);
        speedups.push((ratio, c.speedup()));
        t.row(&[
            label.to_string(),
            fmt_t(c.t_mpi),
            fmt_t(c.t_cc),
            fmt(c.speedup()),
        ]);
    }
    let avg =
        speedups.iter().map(|s| s.1).sum::<f64>() / speedups.len() as f64;
    let avg_compute_heavy = speedups
        .iter()
        .filter(|s| s.0 > 1.0)
        .map(|s| s.1)
        .sum::<f64>()
        / speedups.iter().filter(|s| s.0 > 1.0).count() as f64;
    let avg_io_heavy = speedups
        .iter()
        .filter(|s| s.0 < 1.0)
        .map(|s| s.1)
        .sum::<f64>()
        / speedups.iter().filter(|s| s.0 < 1.0).count() as f64;
    t.row(&["AVG".into(), String::new(), String::new(), fmt(avg)]);
    t.row(&[
        "AVG comp>I/O".into(),
        String::new(),
        String::new(),
        fmt(avg_compute_heavy),
    ]);
    t.row(&[
        "AVG I/O>comp".into(),
        String::new(),
        String::new(),
        fmt(avg_io_heavy),
    ]);
    t
}

// ---------------------------------------------------------------- Fig. 10

/// Fig. 10: weak scaling at ratio 1:5 — fixed per-rank request, process
/// counts 24..1024 (paper: speedup grows 1.42x -> 1.7x with scale).
pub fn fig10(scale: Scale) -> Table {
    let procs: &[usize] = match scale {
        Scale::Quick => &[8, 16, 32],
        Scale::Full => &[24, 48, 120, 240, 480, 1024],
    };
    let cores = match scale {
        Scale::Quick => 8,
        Scale::Full => 24,
    };
    let mk_workload = |p: usize| {
        // Per rank: 32 x 2 x 256 f64 = 128 KB, constant (weak scaling);
        // interleaved so shuffle width grows with the process count.
        ClimateWorkload::interleaved_3d(p, 32, 2, 256, 256 << 10, 156)
    };
    let hints = Hints {
        cb_buffer_size: 1 << 20,
        aggregators_per_node: 1,
        align_domains_to: Some(256 << 10),
        ..Hints::default()
    };
    let mut t = Table::new(
        "Fig. 10: scalability of collective computing (ratio 1:5, weak scaling)",
        &["nprocs", "t_mpi_s", "t_cc_s", "speedup"],
    );
    for &p in procs {
        let workload = mk_workload(p);
        let base = ClusterModel::hopper_like(p.div_ceil(cores), cores);
        // The paper fixes computation:I/O at 1:5 at every scale, so the
        // ratio is re-calibrated per process count (I/O time grows with
        // the aggregate workload under weak scaling).
        let model = calibrate_ratio(&workload, &base, 156, &hints, 0.2);
        let c = run_comparison_trials(&workload, &model, 156, &SumKernel, &hints, 2);
        t.row(&[
            p.to_string(),
            fmt_t(c.t_mpi),
            fmt_t(c.t_cc),
            fmt(c.speedup()),
        ]);
    }
    t
}

// ---------------------------------------------------------------- Fig. 11

/// Fig. 11: "local reduction" overhead of CC vs the traditional reduction,
/// for 128/256/512 processes at 40 GB and 80 GB (virtual) total I/O.
pub fn fig11(scale: Scale) -> Table {
    let (procs, cores): (&[usize], usize) = match scale {
        Scale::Quick => (&[8, 16, 32], 8),
        Scale::Full => (&[128, 256, 512], 24),
    };
    // 40 "GB" virtual = 40 MB real at scale 1000. Interleaved layout:
    // the number of logical runs per rank scales with its data share, so
    // the construction overhead shrinks as ranks are added (fixed total).
    let mk_workload = |p: usize, total_mb: u64| {
        let per_rank_elems = total_mb * (1 << 20) / 8 / p as u64;
        let rows = (per_rank_elems / (2 * 512)).max(1);
        ClimateWorkload::interleaved_3d(p, rows, 2, 512, 1 << 20, 40)
    };
    let mut t = Table::new(
        "Fig. 11: local-reduction overhead (milliseconds, virtual 40/80 GB)",
        &["nprocs", "mpi_40g_ms", "cc_40g_ms", "cc_80g_ms"],
    );
    for &p in procs {
        let model = scaled_model(&ClusterModel::hopper_like(p.div_ceil(cores), cores), 1000.0);
        let hints = Hints {
            cb_buffer_size: 4 << 20,
            aggregators_per_node: 1,
            align_domains_to: None,
            ..Hints::default()
        };
        let c40 = run_comparison(&mk_workload(p, 40), &model, 156, &SumKernel, &hints);
        let c80 = run_comparison(&mk_workload(p, 80), &model, 156, &SumKernel, &hints);
        t.row(&[
            p.to_string(),
            fmt(c40.mpi_local_reduction.secs() * 1e3),
            fmt(c40.cc_local_reduction.secs() * 1e3),
            fmt(c80.cc_local_reduction.secs() * 1e3),
        ]);
    }
    t
}

// ---------------------------------------------------------------- Fig. 12

/// Fig. 12: metadata storage overhead vs MPI collective buffer size
/// (paper: decreasing, with the knee around 8-12 MB).
pub fn fig12(scale: Scale) -> Table {
    let nprocs = match scale {
        Scale::Quick => 8,
        Scale::Full => 64,
    };
    // Per-rank selection is one contiguous ~3 MB run, so 1 MB buffers
    // split every subset while >= 4 MB buffers keep most runs whole.
    let lon = 6144u64;
    let workload = ClimateWorkload::synthetic_3d(nprocs, 1, 64, lon, 64, lon, 1 << 20, 40);
    let model = ClusterModel::hopper_like(nprocs.div_ceil(24).max(1), 24);
    let mut t = Table::new(
        "Fig. 12: metadata overhead vs MPI collective buffer size",
        &["cb_mb", "metadata_entries", "metadata_kb"],
    );
    for cb_mb in [1u64, 4, 8, 12, 24] {
        let hints = Hints {
            cb_buffer_size: cb_mb << 20,
            aggregators_per_node: 1,
            align_domains_to: None,
            ..Hints::default()
        };
        let fs = workload.build_fs(156, model.disk.clone());
        let world = World::new(workload.nprocs(), model.clone());
        let fs = &fs;
        let workload_ref = &workload;
        let hints_ref = &hints;
        let stats = world.run(move |comm| {
            let file = fs.open(ClimateWorkload::FILE).expect("created");
            let slab = workload_ref.slab(comm.rank());
            let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
                .hints(hints_ref.clone());
            let out = object_get_vara(comm, fs, &file, workload_ref.var(), &io, &SumKernel);
            (out.report.metadata_entries, out.report.metadata_bytes)
        });
        let entries: u64 = stats.iter().map(|s| s.0).sum();
        let bytes: u64 = stats.iter().map(|s| s.1).sum();
        t.row(&[
            cb_mb.to_string(),
            entries.to_string(),
            fmt(bytes as f64 / 1024.0),
        ]);
    }
    t
}

// ---------------------------------------------------------------- Fig. 13

/// Fig. 13: the WRF "Min Sea-Level Pressure" task, CC vs traditional MPI,
/// over workload sizes 100-400 (virtual) GB (paper: ~1.45x speedup).
pub fn fig13(scale: Scale) -> Table {
    let (nprocs, sn, cores) = match scale {
        Scale::Quick => (8, 64, 8),
        Scale::Full => (64, 256, 24),
    };
    let sizes_gb = [100u64, 200, 300, 400];
    let mut t = Table::new(
        "Fig. 13: WRF min sea-level pressure task (virtual GB; scaled real 1/1000)",
        &["workload_gb", "t_mpi_s", "t_cc_s", "speedup", "min_slp_hpa", "oracle_ok"],
    );
    for &gb in &sizes_gb {
        // Virtual GB -> real MB (scale 1000). The per-step grid is fixed
        // and the workload grows along the time axis (more simulation
        // output), so per-chunk structure is identical across sizes.
        let real_bytes = gb << 20;
        let we = sn * 2;
        let times = real_bytes / 8 / sn / we;
        let grid = WrfGrid { times, sn, we };
        let wrf = WrfWorkload::new(grid, nprocs, 1 << 20, 40);
        let mut base = ClusterModel::hopper_like(nprocs.div_ceil(cores), cores);
        // A branchy min+location kernel sustains a few hundred MB/s per
        // MagnyCours core, well below a pure streaming sum.
        base.cpu.map_cost_per_byte = 2.2e-9;
        let model = scaled_model(&base, 1000.0);
        let hints = Hints {
            cb_buffer_size: 4 << 20,
            aggregators_per_node: 1,
            align_domains_to: None,
            ..Hints::default()
        };
        let run = |blocking: bool| {
            let fs = wrf.build_fs(156, model.disk.clone());
            let world = World::new(nprocs, model.clone());
            let fs = &fs;
            let wrf_ref = &wrf;
            let hints_ref = &hints;
            let results = world.run(move |comm| {
                let file = fs.open(WrfWorkload::FILE).expect("created");
                // Spatial-band decomposition: non-contiguous, finely
                // interleaved requests (the paper's access pattern).
                let slab = wrf_ref.band_slab(comm.rank());
                let io = ObjectIo::new(slab.start().to_vec(), slab.count().to_vec())
                    .blocking(blocking)
                    .hints(hints_ref.clone())
                    .reduce(ReduceMode::AllToOne { root: 0 });
                let out =
                    object_get_vara(comm, fs, &file, wrf_ref.slp_var(), &io, &MinLocKernel);
                (out.report.end, out.global)
            });
            let end = results.iter().map(|r| r.0).max().expect("nonempty");
            let global = results.into_iter().find_map(|r| r.1).expect("root result");
            (end, global)
        };
        let (t_cc, g_cc) = run(false);
        let (t_mpi, g_mpi) = run(true);
        assert_eq!(g_cc, g_mpi, "CC and baseline disagree on the minimum");
        let (expect_v, expect_i) = grid.slp_min();
        let ok = (g_cc[0] - expect_v).abs() < 1e-9 && g_cc[1] == expect_i as f64;
        t.row(&[
            gb.to_string(),
            fmt_t(t_mpi),
            fmt_t(t_cc),
            fmt(t_mpi.secs() / t_cc.secs()),
            fmt(g_cc[0]),
            ok.to_string(),
        ]);
    }
    t
}
