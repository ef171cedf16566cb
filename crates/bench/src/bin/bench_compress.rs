//! Sweeps the error-bounded frame codec over `bandwidth x bound` cells of
//! the smooth-field collective read and write, asserts the correctness
//! and wire-reduction acceptance gates, and writes `BENCH_compress.json`.
//!
//! Gates, in the order they are checked:
//!
//! 1. `Compression::Off` leaves the engines bit-identical to the
//!    pre-codec stack: at full scale, the PR 6 pipeline workload's FNV
//!    checksum must still be `bf23e472a9022325`.
//! 2. Lossless frames move identical bytes (read checksums and written
//!    files match the raw run exactly, in every bandwidth cell).
//! 3. Error-bounded frames honor the bound end to end: read errors stay
//!    within one codec hop, written files within the two compounding
//!    hops (shuffle + write-back).
//! 4. The default bound cuts inter-node wire bytes >= 3x on the smooth
//!    field (per-lane `CommStats` logical vs wire counters).
//! 5. On the slowed interconnect, where wire time dominates, the default
//!    bound turns those bytes into virtual-time speedup for both the
//!    read shuffle and the write-back.

use cc_bench::compress::{read_case, write_case, CompressBenchConfig, CompressOutcome};
use cc_bench::pipeline::{run_depth, PipelineBenchConfig};
use cc_bench::Scale;
use cc_mpiio::{Compression, ErrorBound, PipelineDepth};

/// The PR 6 full-scale pipeline checksum `Compression::Off` must preserve.
const PIPELINE_OFF_CHECKSUM: u64 = 0xbf23_e472_a902_2325;

fn main() {
    let scale = Scale::from_args();
    let cfg = CompressBenchConfig::for_scale(scale);
    // The field spans [260, 340]; per-payload bounds resolve to at most
    // the global-range bound, so it caps every cell's observed error.
    let default_bound = ErrorBound::default();
    let loose_bound = ErrorBound::relative(1e-2);
    let bound_of = |b: &ErrorBound| b.resolve(260.0, 340.0);

    // Gate 1: Off is bit-identical to the pre-codec engines. The full
    // pipeline workload (256 ranks, PR 6 acceptance config) runs with
    // default hints — compression off — and must reproduce its checksum.
    let pipeline_checksum = (scale == Scale::Full).then(|| {
        let pipe = PipelineBenchConfig::for_scale(Scale::Full);
        let out = run_depth(&pipe, "off-gate", PipelineDepth::double());
        assert_eq!(
            out.checksum, PIPELINE_OFF_CHECKSUM,
            "Compression::Off no longer reproduces the PR 6 pipeline bytes"
        );
        out.checksum
    });

    let modes: [(&str, Compression); 4] = [
        ("off", Compression::Off),
        ("lossless", Compression::Lossless),
        ("eb_default", Compression::ErrorBounded(default_bound)),
        ("eb_loose", Compression::ErrorBounded(loose_bound)),
    ];
    // The calibrated Gemini-like interconnect leaves this workload
    // disk-bound; the congested point slows it 32x so wire bytes carry
    // real clock weight and the codec's reduction must show as speedup.
    let bandwidths: [(&str, f64); 2] = [("calibrated", 1.0), ("congested", 32.0)];

    let mut rows = Vec::new();
    for (bw_label, slowdown) in bandwidths {
        let mut read_off_elapsed = 0.0;
        let mut write_off_elapsed = 0.0;
        let mut read_off_checksum = 0u64;
        let mut write_off_checksum = 0u64;
        for (mode_label, mode) in modes {
            let read = read_case(&cfg, mode, slowdown);
            let write = write_case(&cfg, mode, slowdown);
            match mode {
                Compression::Off => {
                    // Gate baselines; raw frames must not shrink anywhere.
                    assert_eq!(read.logical_inter, read.wire_inter);
                    assert_eq!(write.logical_inter, write.wire_inter);
                    assert_eq!(read.max_err, 0.0);
                    assert_eq!(write.max_err, 0.0);
                    read_off_elapsed = read.elapsed_secs;
                    write_off_elapsed = write.elapsed_secs;
                    read_off_checksum = read.checksum;
                    write_off_checksum = write.checksum;
                }
                Compression::Lossless => {
                    // Gate 2: identical bytes through compressed frames.
                    assert_eq!(
                        read.checksum, read_off_checksum,
                        "lossless read diverged ({bw_label})"
                    );
                    assert_eq!(
                        write.checksum, write_off_checksum,
                        "lossless write diverged ({bw_label})"
                    );
                    assert_eq!(read.max_err, 0.0);
                    assert_eq!(write.max_err, 0.0);
                }
                Compression::ErrorBounded(eb) => {
                    // Gate 3: bounds hold — one hop reading, two writing.
                    // The second hop quantizes *reconstructed* values,
                    // whose range the first hop widened by up to a bound
                    // on each side, so its resolved bound inflates too.
                    let bound = bound_of(&eb);
                    let two_hop = bound + eb.resolve(260.0 - bound, 340.0 + bound);
                    assert!(
                        read.max_err <= bound + 1e-12,
                        "{mode_label}/{bw_label} read err {:e} > bound {bound:e}",
                        read.max_err
                    );
                    assert!(
                        write.max_err <= two_hop + 1e-12,
                        "{mode_label}/{bw_label} write err {:e} > two-hop bound {two_hop:e}",
                        write.max_err
                    );
                    // Gate 4: the wire actually shrank.
                    assert!(
                        read.wire_ratio() >= 3.0,
                        "{mode_label}/{bw_label} read wire ratio only {:.2}x",
                        read.wire_ratio()
                    );
                    assert!(
                        write.wire_ratio() >= 3.0,
                        "{mode_label}/{bw_label} write wire ratio only {:.2}x",
                        write.wire_ratio()
                    );
                    // Gate 5: fewer wire bytes become virtual-time speedup
                    // once the interconnect is the bottleneck.
                    if slowdown > 1.0 {
                        assert!(
                            read.elapsed_secs < read_off_elapsed,
                            "{mode_label}/{bw_label} read {:.4e}s not faster than raw {:.4e}s",
                            read.elapsed_secs,
                            read_off_elapsed
                        );
                        assert!(
                            write.elapsed_secs < write_off_elapsed,
                            "{mode_label}/{bw_label} write {:.4e}s not faster than raw {:.4e}s",
                            write.elapsed_secs,
                            write_off_elapsed
                        );
                    }
                }
            }
            let row = |op: &str, o: &CompressOutcome, off_elapsed: f64| {
                format!(
                    "    {{ \"bandwidth\": \"{bw_label}\", \"mode\": \"{mode_label}\", \"op\": \"{op}\", \"elapsed_secs\": {:.6e}, \"speedup_vs_off\": {:.3}, \"logical_inter\": {}, \"wire_inter\": {}, \"wire_ratio\": {:.2}, \"max_err\": {:.3e}, \"checksum\": \"{:016x}\" }}",
                    o.elapsed_secs,
                    if off_elapsed > 0.0 { off_elapsed / o.elapsed_secs } else { 1.0 },
                    o.logical_inter,
                    o.wire_inter,
                    o.wire_ratio(),
                    o.max_err,
                    o.checksum,
                )
            };
            eprintln!(
                "{bw_label:>10} {mode_label:<10} read {:.3}x wire, {:.2}x time; write {:.3}x wire, {:.2}x time",
                read.wire_ratio(),
                if read_off_elapsed > 0.0 { read_off_elapsed / read.elapsed_secs } else { 1.0 },
                write.wire_ratio(),
                if write_off_elapsed > 0.0 { write_off_elapsed / write.elapsed_secs } else { 1.0 },
            );
            rows.push(row("read", &read, read_off_elapsed));
            rows.push(row("write", &write, write_off_elapsed));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"compress_frames\",\n  \"scale\": \"{}\",\n  \"nprocs\": {},\n  \"aggregators\": {},\n  \"osts\": {},\n  \"piece_bytes\": {},\n  \"pieces_per_rank\": {},\n  \"iterations_per_aggregator\": {},\n  \"field_elems\": {},\n  \"bound_default\": {:.3e},\n  \"bound_loose\": {:.3e},\n  \"pipeline_off_checksum\": {},\n  \"sweep\": [\n{}\n  ]\n}}\n",
        match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        },
        cfg.nprocs,
        cfg.nodes,
        cfg.osts,
        cfg.piece_bytes,
        cfg.pieces_per_rank,
        cfg.iterations_per_aggregator(),
        cfg.file_size() / 8,
        bound_of(&default_bound),
        bound_of(&loose_bound),
        pipeline_checksum
            .map(|c| format!("\"{c:016x}\""))
            .unwrap_or_else(|| "null".to_string()),
        rows.join(",\n"),
    );
    print!("{json}");
    std::fs::write("BENCH_compress.json", &json).expect("write BENCH_compress.json");
}
