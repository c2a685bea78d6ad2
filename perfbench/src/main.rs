//! End-to-end benchmark of the LASH pipeline on the path the daemon uses:
//! generated corpus → sealed store → mmap scan → f-list → map/rewrite →
//! shuffle → PSM reduce → index build → swap → TCP query.
//!
//! ```text
//! perfbench --workload <mine_clp|refresh_under_load>
//!           --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones (see `BENCHMARK.json`). `--tiny` shrinks every corpus
//! and phase, for the self-tests. The run builds everything it needs in a
//! fresh directory under `.bench_runs/` of the working directory and
//! removes it at the end.

mod loadgen;
mod rss;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::workload::Outcome;

/// End-to-end metrics, printed by the untraced run.
pub const END_TO_END: &[&str] = &["setup_s", "mine_s", "refresh_s", "peak_rss_mb"];

/// Per-layer metrics, printed by the traced run.
pub const PER_LAYER: &[&str] = &[
    "store.open_ms",
    "store.flist_ms",
    "store.scan_melem_s",
    "store.blocks_pruned_ratio",
    "store.ingest_ms",
    "store.compact_ms",
    "store.compact_throttled_rounds",
    "store.compact_bytes_in",
    "store.write_amp",
    "store.generations",
    "store.bytes_per_item",
    "mapreduce.map_ms",
    "mapreduce.shuffle_ms",
    "mapreduce.reduce_ms",
    "mapreduce.map_output_bytes",
    "mapreduce.map_output_records",
    "mapreduce.spilled_bytes",
    "mapreduce.peak_resident_bytes",
    "mapreduce.flist_jobs",
    "core.candidates",
    "core.expansions",
    "core.outputs",
    "core.candidates_per_output",
    "core.partitions",
    "core.patterns",
    "index.build_ms",
    "index.open_ms",
    "index.swap_us",
    "index.nodes",
    "index.arena_bytes",
    "index.exec_us.support",
    "index.exec_us.enumerate",
    "index.exec_us.top_k",
    "index.exec_us.generalized",
    "query_max_qps",
    "query_p50_us",
    "query_p90_us",
    "query_p99_us",
    "refresh_query_p99_us",
    "serve.rtt_us",
    "serve.batch_size_mean",
    "serve.queue_wait_p50_us",
    "serve.queue_wait_p99_us",
    "serve.error_replies",
    "serve.frame_errors",
    "serve.round_ms",
    "loadgen.late_p99_us",
    "loadgen.offered",
    "loadgen.completed",
    "loadgen.query_samples",
    "loadgen.invalid_windows",
    "mine.samples",
    "refresh.rounds",
    "failed_ratio",
    "rss.setup_mb",
    "rss.mine_mb",
    "rss.serve_mb",
    "rss.refresh_mb",
    "self_ms.store",
    "self_ms.mapreduce",
    "self_ms.core",
    "self_ms.index",
    "self_ms.serve",
    "self_ms.span.mapreduce.map_task",
    "self_ms.span.mapreduce.reduce_task",
    "self_ms.span.mapreduce.merge",
    "self_ms.span.mine.partition",
    "self_ms.span.mine.flist",
    "self_ms.span.store.scan.shard",
    "self_ms.span.store.compact.round",
    "self_ms.span.index.build",
    "self_ms.span.serve.refresh",
    "self_ms.span.serve.batch",
    "self_ms.span.query.request",
    "trace.mine_s",
    "trace.overhead_ms",
    "trace.overhead_pct",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    /// Flips the reference digest, so the correctness check must fail —
    /// used by the self-tests to show the check bites.
    pub corrupt_reference: bool,
    /// Prints the reference digests instead of running the workload; the
    /// benchmark starts itself this way in a child process.
    pub reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
        corrupt_reference: false,
        reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--corrupt-reference" => args.corrupt_reference = true,
            "--reference" => args.reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload, args.tiny) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    if args.reference {
        return match workload::reference_digests(&spec, args.seed) {
            Ok((base, grown)) => {
                println!("{base} {grown}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let run_dir = PathBuf::from(".bench_runs").join(format!(
        "{}-s{}-p{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    // A flight-recorder dump, should an error fire, stays in the run
    // directory instead of the system temp dir.
    lash_obs::flight::set_dump_dir(Some(run_dir.clone()));

    let result = workload::run(&spec, &args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".bench_runs");
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    match emit(&outcome, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: correctness check failed: {}",
            outcome.problems.join("; ")
        );
        ExitCode::from(1)
    }
}

fn emit(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let names = if trace { PER_LAYER } else { END_TO_END };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.report.render(names)?
    ))
}
