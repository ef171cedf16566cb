//! Command line: `ccbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`. Prints a human-readable report, then as the last line
//! of standard output one JSON object with the checks and the metrics.
//! The traced run also writes its spans as Chrome trace-event JSON under
//! `.bench_out/` in the working directory.

use std::process::ExitCode;

use ccbench::harness::{result_json, RunConfig, Scale};

fn usage() -> ExitCode {
    eprintln!(
        "usage: ccbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        ccbench::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        let ok = match (args[i].as_str(), value) {
            ("--workload", Some(v)) => {
                workload = Some(v.clone());
                true
            }
            ("--seed", Some(v)) => v.parse().map(|s| cfg.seed = s).is_ok(),
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => {
                    cfg.seconds = s;
                    true
                }
                _ => false,
            },
            ("--trace", Some(v)) => match v.as_str() {
                "0" => true,
                "1" => {
                    cfg.trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
        i += 2;
    }
    let Some(name) = workload else {
        return usage();
    };
    let Some(out) = ccbench::run(&name, &cfg) else {
        return usage();
    };

    println!(
        "== ccbench {name} ({})",
        if cfg.trace { "traced" } else { "untraced" }
    );
    for note in &out.notes {
        println!("   {note}");
    }
    let metrics = if cfg.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for (d, v) in metrics {
        println!("   {:<32} {:>16.6} {}", d.name, v, d.unit);
    }
    println!(
        "   checks: {} attempted, {} failed",
        out.attempted, out.failed
    );
    for f in &out.failures {
        eprintln!("   check failed: {f}");
    }
    if cfg.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{name}-seed{}.trace.json", cfg.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, out.trace.chrome_json()))
        {
            Ok(()) => println!("   chrome trace: {}", path.display()),
            Err(e) => eprintln!("   could not write {}: {e}", path.display()),
        }
    }
    println!("{}", result_json(&out, cfg.trace));
    ExitCode::SUCCESS
}
