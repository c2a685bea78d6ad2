//! The two workloads. Each one runs the daemon's whole life cycle —
//! set-up, timed cold mines, idle serving, and refresh rounds — in every
//! cycle of the run, because the result line must carry every end-to-end
//! metric; the corpus, parameters and time shares decide which layer gets
//! the time:
//!
//! - `mine_clp`: the paper's Fig. 4a setting, CLP(σ=100, γ=0, λ=5) on a
//!   NYT-like corpus; cold store-backed mines and re-mines of the grown
//!   corpus take most of the run, with serving nearly idle.
//! - `refresh_under_load`: the daemon's own parameters (σ=25, γ=1, λ=4)
//!   with ingest → refresh rounds, compaction included, while the
//!   open-loop generator keeps querying; its traced run also measures the
//!   serving layers on the fixed index before the rounds start.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lash_core::{GsmParams, ItemId, Lash, LashResult, SequenceDatabase};
use lash_datagen::{Rng, TextConfig, TextCorpus, TextHierarchy};
use lash_index::{PatternIndexReader, Query, QueryReply, QueryService};
use lash_serve::{Client, Lifecycle, ServeConfig, Server};
use lash_store::{CorpusReader, StoreOptions};

use crate::loadgen::{self, LoadResult, Sample};
use crate::stats::{median, quantile, Report};
use crate::trace::Tracer;
use crate::{rss, Args};

/// The fixed offered rate of `query_p50_us` (requests/s), about an eighth
/// of the reference host's capacity.
const FIXED_RATE: f64 = 4_000.0;
/// The capacity ladder doubles its offered rate up to this (requests/s)...
const LADDER_CAP: f64 = 256_000.0;
/// ...and, when even the fixed rate misses the limit, halves it down to
/// this.
const LADDER_FLOOR: f64 = 100.0;
/// Bisection steps between the last rung that held and the first that did
/// not: 2^(1/8) ≈ 9 % resolution.
const BISECT_STEPS: usize = 3;
/// Leading part of every load window left out of its figures (connection
/// set-up, reader-thread start).
const WARMUP: Duration = Duration::from_millis(150);
/// Latency limit on a rung's p99, from each request's scheduled send time.
const LATENCY_LIMIT_US: f64 = 20_000.0;
/// A fixed-rate window whose sender ran later than this at its p99 could
/// not keep its schedule; it is measured again instead of reported, at
/// most [`MAX_INVALID`] times before the run is declared invalid.
const LATE_LIMIT_US: f64 = LATENCY_LIMIT_US;
const MAX_INVALID: usize = 3;
/// Seconds per capacity-ladder rung.
const RUNG_SECS: f64 = 0.3;
/// Cycles per run; `setup_s` is the median of their set-ups.
const CYCLES: usize = 5;
/// Timed cold mines per cycle of the untraced run. A fixed count, not a
/// time budget, so every run does the same work: the process's resident
/// set grows a little from one cycle to the next, by more the more work a
/// cycle did.
const MINES_PER_CYCLE: usize = 2;
/// Share of `--seconds` spent at the fixed offered rate, over all cycles.
const FIXED_SHARE: f64 = 0.05;
/// Shortest fixed-rate window, in seconds after the warm-up.
const MIN_WINDOW_SECS: f64 = 0.5;
/// Queries per cycle of the `experiments serve` mix: 20 supports, one
/// top-k, one enumerate, one generalized.
const MIX_LEN: u64 = 23;
/// Patterns the skewed draw ranges over (the index's most frequent).
const SKEW_TOP: usize = 256;

/// One workload: its corpus, mining parameters, rounds and load.
pub struct Spec {
    pub hierarchy: TextHierarchy,
    /// `TextConfig::scaled` factor of the sealed base corpus.
    pub scale: f64,
    pub params: (u64, usize, usize),
    /// Sequences per ingest.
    pub chunk: usize,
    /// Cycles per run, each on a daemon of its own: set-up, cold mines,
    /// one fixed-rate window, and the refresh rounds.
    pub cycles: usize,
    /// Ingest → refresh rounds per cycle.
    pub rounds: usize,
    /// Offered rate while refresh rounds run (requests/s).
    pub refresh_rate: f64,
    pub rung_secs: f64,
}

impl Spec {
    fn gsm_params(&self) -> Result<GsmParams, String> {
        let (sigma, gamma, lambda) = self.params;
        GsmParams::new(sigma, gamma, lambda).map_err(|e| e.to_string())
    }
}

/// The workload named `name`; `tiny` shrinks it for the self-tests.
pub fn spec(name: &str, tiny: bool) -> Option<Spec> {
    let mut spec = match name {
        // Serving does next to no work here: a trickle of queries during
        // the rounds, for their latency and the served-reply check.
        "mine_clp" => Spec {
            hierarchy: TextHierarchy::CLP,
            scale: 1.0,
            params: (100, 0, 5),
            chunk: 1_000,
            cycles: CYCLES,
            rounds: 2,
            refresh_rate: 200.0,
            rung_secs: RUNG_SECS,
        },
        // Four rounds per daemon: the fourth ingest takes the store past
        // the four generations `CompactionConfig` keeps, so every cycle
        // compacts.
        "refresh_under_load" => Spec {
            hierarchy: TextHierarchy::LP,
            scale: 0.2,
            params: (25, 1, 4),
            chunk: 300,
            cycles: CYCLES,
            rounds: 4,
            refresh_rate: 2_000.0,
            rung_secs: RUNG_SECS,
        },
        _ => return None,
    };
    if tiny {
        spec.scale = 0.02;
        spec.chunk = 50;
        spec.params.0 = spec.params.0.min(10);
        spec.cycles = 2;
        spec.rung_secs = 0.1;
    }
    Some(spec)
}

/// What a run measured and whether its outputs were right.
pub struct Outcome {
    pub report: Report,
    pub correct: bool,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

/// Correctness findings and operation counts gathered along the run.
#[derive(Default)]
struct Ledger {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn load(&mut self, load: &LoadResult) {
        self.attempted += load.offered();
        self.failed += load.failed();
    }
}

/// FNV-1a-64 over a pattern list in lexicographic item order: equal
/// digests mean equal `(items, frequency)` sets.
fn digest<'a>(patterns: impl IntoIterator<Item = (&'a [ItemId], u64)>) -> u64 {
    let mut sorted: Vec<(&[ItemId], u64)> = patterns.into_iter().collect();
    sorted.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (items, freq) in sorted {
        eat(items.len() as u64);
        for item in items {
            eat(item.as_u32() as u64);
        }
        eat(freq);
    }
    h
}

fn result_digest(result: &LashResult) -> u64 {
    digest(
        result
            .patterns()
            .iter()
            .map(|p| (p.items.as_slice(), p.frequency)),
    )
}

fn index_digest(reader: &PatternIndexReader) -> Result<(u64, usize), String> {
    let all = reader
        .enumerate(&[], None)
        .map_err(|e| format!("enumerate index: {e}"))?;
    Ok((
        digest(all.iter().map(|(items, f)| (items.as_slice(), *f))),
        all.len(),
    ))
}

/// The `experiments serve` query mix: per 23 queries, 20 exact supports of
/// real patterns, one top-k (k = 10) and one enumerate (limit 5) over the
/// whole index, and one generalized lookup. The mix draws its kinds at
/// those odds and, where `experiments serve` cycles over the top 20
/// patterns, draws each support and generalized pattern Zipf-skewed over
/// the index's own most frequent patterns.
fn query_pool(service: &QueryService, seed: u64, size: usize) -> Result<Vec<Query>, String> {
    let top = match service.execute(&Query::TopK {
        prefix: vec![],
        k: SKEW_TOP,
    }) {
        Ok(QueryReply::Patterns(hits)) if !hits.is_empty() => hits,
        other => return Err(format!("index has no patterns to query: {other:?}")),
    };
    let weights: Vec<f64> = (0..top.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = Rng::new(seed ^ 0x5eed_f00d);
    let mut pool = Vec::with_capacity(size);
    for _ in 0..size {
        let u = rng.f64();
        let items = top[cdf.partition_point(|&c| c < u).min(top.len() - 1)]
            .items
            .clone();
        pool.push(match rng.below(MIX_LEN) {
            0 => Query::TopK {
                prefix: vec![],
                k: 10,
            },
            1 => Query::Enumerate {
                prefix: vec![],
                limit: Some(5),
            },
            2 => Query::Generalized { items },
            _ => Query::Support { items },
        });
    }
    Ok(pool)
}

/// Compares sampled served replies with `QueryService::execute` on the
/// snapshot that served them.
fn check_samples(
    ledger: &mut Ledger,
    service: &QueryService,
    pool: &[Query],
    samples: &[Sample],
    what: &str,
) {
    for s in samples {
        let query = &pool[s.pool_index];
        let expected = service.execute(query);
        ledger.check(expected.as_ref().ok() == Some(&s.reply), || {
            format!("{what}: served reply to {query:?} differs from the index")
        });
    }
}

/// Registry values read before and after a phase.
fn counter(name: &str) -> u64 {
    lash_obs::global().counter(name).get()
}

fn histogram_delta(
    name: &str,
    before: &lash_obs::HistogramSnapshot,
) -> lash_obs::HistogramSnapshot {
    let mut now = lash_obs::global().histogram(name).snapshot();
    now.count -= before.count;
    now.sum -= before.sum;
    for (b, a) in now.buckets.iter_mut().zip(before.buckets.iter()) {
        *b -= a;
    }
    now
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The daemon under test: its directories, life cycle and server.
struct Daemon {
    dir: PathBuf,
    corpus_dir: PathBuf,
    lifecycle: Lifecycle,
    server: Server,
}

/// Generates the corpus: the sealed base plus every ingest chunk, and the
/// number of base sequences.
fn generate(spec: &Spec, seed: u64) -> (lash_core::Vocabulary, SequenceDatabase, usize) {
    let mut config = TextConfig {
        seed,
        ..TextConfig::default()
    }
    .scaled(spec.scale);
    let base = config.sentences;
    config.sentences += spec.rounds * spec.chunk;
    let (vocab, db) = TextCorpus::generate(&config).dataset(spec.hierarchy);
    (vocab, db, base)
}

/// Digests of the in-memory `Lash::mine` (the proptest-exact reference
/// path) over the generated base corpus and over the corpus after every
/// round.
pub fn reference_digests(spec: &Spec, seed: u64) -> Result<(u64, u64), String> {
    let params = spec.gsm_params()?;
    let (vocab, db, base) = generate(spec, seed);
    let mine = |db: &SequenceDatabase| {
        Lash::default()
            .mine(db, &vocab, &params)
            .map(|r| result_digest(&r))
            .map_err(|e| format!("reference mine: {e}"))
    };
    Ok((mine(&db.truncated(base))?, mine(&db)?))
}

/// Runs [`reference_digests`] in a child process of this binary, so the
/// in-memory mines share neither memory nor time with the measured
/// process.
fn reference_in_child(args: &Args) -> Result<(u64, u64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut child = Command::new(exe);
    child.args(["--workload", &args.workload, "--seed"]);
    child.arg(args.seed.to_string());
    child.args(["--seconds", "1", "--reference"]);
    if args.tiny {
        child.arg("--tiny");
    }
    let out = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("reference process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let digests: Vec<u64> = text
        .split_whitespace()
        .filter_map(|d| d.parse().ok())
        .collect();
    match (out.status.success(), digests.as_slice()) {
        (true, &[base, grown]) => Ok((base, grown)),
        _ => Err(format!("reference process failed ({}): {text}", out.status)),
    }
}

/// One set-up: corpus generation, store write, bootstrap mine, index
/// build and server start, into a fresh directory. Returns the daemon
/// and the sequences the refresh rounds will ingest; the rest of the
/// generated corpus is dropped.
fn set_up(
    spec: &Spec,
    params: &GsmParams,
    seed: u64,
    dir: PathBuf,
    tracer: &Tracer,
) -> Result<(Daemon, Vec<Vec<ItemId>>), String> {
    let ((vocab, db, base), _) = tracer.call("bench.datagen", || generate(spec, seed));
    let corpus_dir = dir.join("corpus");
    tracer
        .call("bench.store.write", || {
            lash_store::convert::write_database(
                &corpus_dir,
                &vocab,
                &db.truncated(base),
                StoreOptions::default(),
            )
        })
        .0
        .map_err(|e| format!("write store: {e}"))?;
    let chunks = (base..db.len()).map(|i| db.get(i).to_vec()).collect();
    drop((vocab, db));
    let config = ServeConfig::default();
    let lifecycle = tracer
        .call("bench.serve.bootstrap", || {
            Lifecycle::bootstrap(
                &corpus_dir,
                dir.join("index"),
                Lash::default(),
                *params,
                &config,
            )
        })
        .0
        .map_err(|e| format!("bootstrap: {e}"))?;
    let server = tracer
        .call("bench.serve.start", || {
            Server::start_with_health(lifecycle.service(), &config, lifecycle.health())
        })
        .0
        .map_err(|e| format!("start server: {e}"))?;
    Ok((
        Daemon {
            dir,
            corpus_dir,
            lifecycle,
            server,
        },
        chunks,
    ))
}

/// Wall time and peak resident set per phase, summed (time) and maxed
/// (memory) over every stretch of the run spent in that phase, and the
/// peak of each cycle.
#[derive(Default)]
struct Phases {
    phases: Vec<(&'static str, Duration, f64)>,
    /// Highest peak of the current cycle so far.
    cycle_peak: f64,
    /// Peak of every finished cycle.
    cycle_peaks: Vec<f64>,
}

impl Phases {
    /// Runs `f` as one stretch of phase `name`, with the high-water mark
    /// of the resident set reset at its start.
    fn run<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        rss::reset_peak();
        let started = Instant::now();
        let out = f()?;
        let (took, mb) = (started.elapsed(), rss::peak_mb()?);
        self.cycle_peak = self.cycle_peak.max(mb);
        match self.phases.iter_mut().find(|p| p.0 == name) {
            Some(p) => {
                p.1 += took;
                p.2 = p.2.max(mb);
            }
            None => self.phases.push((name, took, mb)),
        }
        Ok(out)
    }

    fn end_cycle(&mut self) {
        self.cycle_peaks.push(std::mem::take(&mut self.cycle_peak));
    }

    /// `peak_rss_mb`, the median of the cycles' peaks, and the highest
    /// peak of every phase.
    fn report(&self, report: &mut Report) {
        for (name, _, mb) in &self.phases {
            report.set(&format!("rss.{name}_mb"), *mb, "MB");
        }
        report.set("peak_rss_mb", median(&self.cycle_peaks), "MB");
        eprintln!(
            "perfbench: {}; cycle peaks {:.0?} MB",
            self.phases
                .iter()
                .map(|(name, d, mb)| format!("{name} {:.1} s {mb:.0} MB", d.as_secs_f64()))
                .collect::<Vec<_>>()
                .join(", "),
            self.cycle_peaks
        );
    }
}

/// Runs one workload end to end.
///
/// The run is [`Spec::cycles`] cycles, each on a daemon of its own: a
/// set-up, its cold mines, one fixed-rate load window, and its ingest →
/// refresh rounds, after which the daemon is shut down and its directory
/// deleted. So the samples behind every end-to-end metric span the whole
/// run: the reference host's speed drifts over seconds, and a median over
/// samples taken in one contiguous stretch moves with it. The traced run
/// also probes the store, index and serving layers on the last cycle's
/// daemon before its rounds.
pub fn run(spec: &Spec, args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    let tracer = if args.trace {
        Tracer::on(&run_dir.join("trace.jsonl")).map_err(|e| format!("trace sink: {e}"))?
    } else {
        Tracer::off()
    };
    let params = spec.gsm_params()?;
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let errors_before = counter("serve.error_replies");
    let frame_errors_before = counter("serve.frame_errors");

    // Reference digests, untimed, from a separate process.
    let (mut reference_digest, grown_digest) = reference_in_child(args)?;
    if args.corrupt_reference {
        reference_digest ^= 1;
    }

    let mut phases = Phases::default();
    let mut setup_s = Vec::new();
    let mut mines = Mines::default();
    let mut fixed = Fixed::default();
    let mut refreshes = Refreshes::default();
    let mut pool = None;
    for cycle in 0..spec.cycles {
        let (daemon, chunks) = phases.run("setup", || {
            let started = Instant::now();
            let dir = run_dir.join(format!("cycle-{cycle}"));
            let out = set_up(spec, &params, args.seed, dir, &tracer)?;
            setup_s.push(started.elapsed().as_secs_f64());
            Ok(out)
        })?;
        // The bootstrap index must hold exactly the in-memory mine's
        // patterns.
        let service = daemon.lifecycle.service();
        let (live_digest, live_patterns) = index_digest(&service.snapshot())?;
        ledger.check(live_digest == reference_digest, || {
            format!("bootstrap index ({live_patterns} patterns) differs from the in-memory mine")
        });
        phases.run("mine", || {
            mine_cycle(
                &params,
                &daemon,
                reference_digest,
                &tracer,
                &mut mines,
                &mut ledger,
            )
        })?;
        // Every cycle's base corpus, and so its index, is the same.
        let pool = match &pool {
            Some(pool) => Arc::clone(pool),
            None => pool
                .insert(Arc::new(query_pool(&service, args.seed, 4096)?))
                .clone(),
        };
        phases.run("serve", || {
            fixed_window(spec, args, &daemon, &pool, &mut fixed, &mut ledger)
        })?;
        if tracer.enabled() && cycle + 1 == spec.cycles {
            let result = mines.last.as_ref().expect("at least one mine");
            phases.run("mine", || {
                store_and_index_probes(
                    &daemon,
                    result,
                    reference_digest,
                    &tracer,
                    run_dir,
                    &mut report,
                    &mut ledger,
                )
            })?;
            phases.run("serve", || {
                serve_probes(
                    spec,
                    args,
                    &daemon,
                    &pool,
                    &fixed,
                    &tracer,
                    &mut report,
                    &mut ledger,
                )
            })?;
        }
        phases.run("refresh", || {
            refresh_rounds(
                spec,
                args.seed,
                daemon,
                chunks,
                grown_digest,
                &pool,
                &tracer,
                &mut refreshes,
                &mut ledger,
            )
        })?;
        phases.end_cycle();
        rss::release_free_memory();
    }
    report.set("setup_s", median(&setup_s), "s");
    mines.report(&mut report);
    fixed.report(&mut report);
    refreshes.report(spec, &mut report);
    phases.report(&mut report);

    report.set(
        "serve.error_replies",
        (counter("serve.error_replies") - errors_before) as f64,
        "count",
    );
    report.set(
        "serve.frame_errors",
        (counter("serve.frame_errors") - frame_errors_before) as f64,
        "count",
    );
    report.set(
        "failed_ratio",
        ledger.failed as f64 / ledger.attempted.max(1) as f64,
        "ratio",
    );
    for (name, value) in tracer.self_times()? {
        report.set(&name, value, "ms");
    }
    Ok(Outcome {
        report,
        correct: ledger.problems.is_empty(),
        problems: ledger.problems,
        attempted: ledger.attempted.max(1),
        failed: ledger.failed,
    })
}

/// Cold-mine samples gathered across the cycles.
#[derive(Default)]
struct Mines {
    mine_s: Vec<f64>,
    traced_s: Vec<f64>,
    open_ms: Vec<f64>,
    flist_ms: Vec<f64>,
    flist_jobs: u64,
    map_ms: Vec<f64>,
    shuffle_ms: Vec<f64>,
    reduce_ms: Vec<f64>,
    blocks_decoded: u64,
    blocks_pruned: u64,
    last: Option<LashResult>,
}

/// One cycle's timed cold mines: `CorpusReader::open` →
/// `CorpusReader::mine` → patterns in hand, with the server idle,
/// [`MINES_PER_CYCLE`] of them. The traced run mines once per cycle,
/// untraced and traced in turn: the difference of their medians is the
/// tracing overhead.
fn mine_cycle(
    params: &GsmParams,
    daemon: &Daemon,
    reference_digest: u64,
    tracer: &Tracer,
    mines: &mut Mines,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let lash = Lash::default();
    let dir = &daemon.corpus_dir;
    for _ in 0..MINES_PER_CYCLE {
        let i = mines.mine_s.len() + mines.traced_s.len();
        let traced = tracer.enabled() && i % 2 == 1;
        tracer.attach(traced);
        let decoded = counter("store.scan.blocks_decoded");
        let pruned = counter("store.scan.blocks_pruned");
        let t0 = Instant::now();
        let (reader, open) = tracer.call("bench.store.open", || CorpusReader::open(dir));
        let reader = reader.map_err(|e| format!("open store: {e}"))?;
        let (result, _) = tracer.call("bench.core.mine", || reader.mine(&lash, params));
        let result = result.map_err(|e| format!("mine: {e}"))?;
        let elapsed = t0.elapsed().as_secs_f64();
        mines.blocks_decoded += counter("store.scan.blocks_decoded") - decoded;
        mines.blocks_pruned += counter("store.scan.blocks_pruned") - pruned;
        ledger.attempted += 1;
        ledger.check(result_digest(&result) == reference_digest, || {
            format!("store-backed mine {i} differs from the in-memory mine")
        });
        if traced {
            mines.traced_s.push(elapsed);
        } else {
            mines.mine_s.push(elapsed);
        }
        let (flist, flist_d) = tracer.call("bench.store.flist", || reader.flist());
        ledger.check(matches!(flist, Ok(Some(_))), || {
            "header-only f-list unavailable".into()
        });
        mines.open_ms.push(ms(open));
        mines.flist_ms.push(ms(flist_d));
        // The f-list job runs only when the header f-list fell back.
        if result.preprocess_metrics.counters.map_task_attempts > 0 {
            mines.flist_jobs += 1;
        }
        mines.map_ms.push(ms(result.mine_metrics.map_time));
        mines.shuffle_ms.push(ms(result.mine_metrics.shuffle_time));
        mines.reduce_ms.push(ms(result.mine_metrics.reduce_time));
        mines.last = Some(result);
        if tracer.enabled() {
            break;
        }
    }
    tracer.attach(true);
    Ok(())
}

impl Mines {
    /// Reports the mine figures; counts come from the last mine.
    fn report(&self, report: &mut Report) {
        report.set("mine_s", median(&self.mine_s), "s");
        report.set("mine.samples", self.mine_s.len() as f64, "count");
        let untraced = median(&self.mine_s);
        let traced = if self.traced_s.is_empty() {
            untraced
        } else {
            median(&self.traced_s)
        };
        report.set("trace.mine_s", traced, "s");
        report.set("trace.overhead_ms", (traced - untraced) * 1e3, "ms");
        report.set(
            "trace.overhead_pct",
            (traced - untraced) / untraced * 100.0,
            "%",
        );
        report.set("store.open_ms", median(&self.open_ms), "ms");
        report.set("store.flist_ms", median(&self.flist_ms), "ms");
        report.set("mapreduce.flist_jobs", self.flist_jobs as f64, "count");
        report.set("mapreduce.map_ms", median(&self.map_ms), "ms");
        report.set("mapreduce.shuffle_ms", median(&self.shuffle_ms), "ms");
        report.set("mapreduce.reduce_ms", median(&self.reduce_ms), "ms");
        report.set(
            "store.blocks_pruned_ratio",
            self.blocks_pruned as f64 / (self.blocks_decoded + self.blocks_pruned).max(1) as f64,
            "ratio",
        );
        let result = self.last.as_ref().expect("at least one mine");
        let c = &result.mine_metrics.counters;
        report.set(
            "mapreduce.map_output_bytes",
            c.map_output_bytes as f64,
            "bytes",
        );
        report.set(
            "mapreduce.map_output_records",
            c.map_output_records as f64,
            "count",
        );
        report.set("mapreduce.spilled_bytes", c.spilled_bytes as f64, "bytes");
        report.set(
            "mapreduce.peak_resident_bytes",
            c.peak_resident_bytes as f64,
            "bytes",
        );
        let s = &result.miner_stats;
        report.set("core.candidates", s.candidates as f64, "count");
        report.set("core.expansions", s.expansions as f64, "count");
        report.set("core.outputs", s.outputs as f64, "count");
        report.set(
            "core.candidates_per_output",
            s.candidates_per_output().unwrap_or(0.0),
            "ratio",
        );
        report.set("core.partitions", result.num_partitions as f64, "count");
        report.set("core.patterns", result.patterns().len() as f64, "count");
    }
}

/// Scan throughput over the whole corpus, and index build, open and swap
/// on the mined patterns, off the live path.
fn store_and_index_probes(
    daemon: &Daemon,
    result: &LashResult,
    reference_digest: u64,
    tracer: &Tracer,
    run_dir: &Path,
    report: &mut Report,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let reader = CorpusReader::open(&daemon.corpus_dir).map_err(|e| format!("open store: {e}"))?;
    // Scan throughput: every sequence of the corpus through `par_scan`.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut melem_s = Vec::new();
    for _ in 0..3 {
        let (items, took) = tracer.call("bench.store.scan", || {
            reader.par_scan(threads, |_, mut scan| {
                let mut n = 0u64;
                while let Some((_, items)) = scan.next_borrowed()? {
                    n += items.len() as u64;
                }
                Ok(n)
            })
        });
        let items: u64 = items.map_err(|e| format!("scan: {e}"))?.into_iter().sum();
        ledger.check(items == reader.manifest().total_items, || {
            format!(
                "scan saw {items} items, manifest holds {}",
                reader.manifest().total_items
            )
        });
        melem_s.push(items as f64 / took.as_secs_f64() / 1e6);
    }
    report.set("store.scan_melem_s", median(&melem_s), "Melem/s");
    let payload: u64 = reader.generations().iter().map(|g| g.payload_bytes()).sum();
    report.set(
        "store.bytes_per_item",
        payload as f64 / reader.manifest().total_items.max(1) as f64,
        "bytes",
    );

    let (mut build_ms, mut iopen_ms, mut swap_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut summary = None;
    for k in 0..3 {
        let idx_dir = run_dir.join(format!("probe-index-{k}"));
        let (built, took) = tracer.call("bench.index.build", || {
            lash_index::write_patterns(&idx_dir, reader.vocabulary(), result.patterns())
        });
        summary = Some(built.map_err(|e| format!("index build: {e}"))?);
        build_ms.push(ms(took));
        let (opened, took) = tracer.call("bench.index.open", || PatternIndexReader::open(&idx_dir));
        let opened = opened.map_err(|e| format!("index open: {e}"))?;
        iopen_ms.push(ms(took));
        let (idx_digest, _) = index_digest(&opened)?;
        ledger.check(idx_digest == reference_digest, || {
            "index built from the mine differs from the in-memory mine".into()
        });
        let second = PatternIndexReader::open(&idx_dir).map_err(|e| format!("index open: {e}"))?;
        let svc = QueryService::new(opened);
        let (_, took) = tracer.call("bench.index.swap", || svc.swap(second));
        swap_us.push(took.as_secs_f64() * 1e6);
        let _ = std::fs::remove_dir_all(&idx_dir);
    }
    let summary = summary.expect("an index was built");
    report.set("index.build_ms", median(&build_ms), "ms");
    report.set("index.open_ms", median(&iopen_ms), "ms");
    report.set("index.swap_us", median(&swap_us), "us");
    report.set("index.nodes", summary.num_nodes as f64, "count");
    report.set("index.arena_bytes", summary.arena_bytes as f64, "bytes");
    Ok(())
}

/// Runs the generator at `rate` for a warm-up plus `secs`, and returns its
/// result with the measured window `[from, to)` in generator nanoseconds.
fn load_for(
    addr: SocketAddr,
    pool: &Arc<Vec<Query>>,
    rate: f64,
    secs: f64,
    seed: u64,
) -> Result<(LoadResult, u64, u64), String> {
    let running = loadgen::start(addr, Arc::clone(pool), rate, seed)
        .map_err(|e| format!("load connect: {e}"))?;
    std::thread::sleep(WARMUP + Duration::from_secs_f64(secs));
    let load = running.stop();
    let to = load.elapsed.as_nanos() as u64;
    Ok((load, WARMUP.as_nanos() as u64, to))
}

/// Fixed-rate load windows gathered across the cycles: per window its
/// latency quantiles and answered rate, and totals.
#[derive(Default)]
struct Fixed {
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    p99_us: Vec<f64>,
    answered_per_s: Vec<f64>,
    late_us: Vec<f64>,
    answered: usize,
    offered: u64,
    completed: u64,
    failed: u64,
    invalid: usize,
    /// Server-side registry deltas over the windows: requests, batches,
    /// and queue waits.
    requests: u64,
    batches: u64,
    queue_wait: Option<lash_obs::HistogramSnapshot>,
}

/// One cycle's window at the fixed offered rate; a window the generator
/// could not keep is measured again.
fn fixed_window(
    spec: &Spec,
    args: &Args,
    daemon: &Daemon,
    pool: &Arc<Vec<Query>>,
    fixed: &mut Fixed,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let secs = (args.seconds * FIXED_SHARE / spec.cycles as f64).max(MIN_WINDOW_SECS);
    let addr = daemon.server.local_addr();
    loop {
        let window = (fixed.p50_us.len() + fixed.invalid) as u64;
        let seed = args.seed.wrapping_mul(64).wrapping_add(window);
        let requests = counter("serve.requests");
        let batches = counter("serve.batches");
        let wait = lash_obs::global()
            .histogram("serve.queue.wait_us")
            .snapshot();
        let (load, from, to) = load_for(addr, pool, FIXED_RATE, secs, seed)?;
        ledger.load(&load);
        let late = load.late_us(from, to);
        let late_p99 = quantile(&late, 0.99);
        if late_p99 > LATE_LIMIT_US {
            fixed.invalid += 1;
            if fixed.invalid > MAX_INVALID {
                return Err(format!(
                    "invalid run: the generator could not keep its schedule \
                     (late p99 {late_p99:.0} us in {} windows)",
                    fixed.invalid
                ));
            }
            eprintln!("perfbench: fixed-rate window invalid (late p99 {late_p99:.0} us), again");
            continue;
        }
        let latencies = load.latencies_us(from, to);
        fixed.p50_us.push(quantile(&latencies, 0.5));
        fixed.p90_us.push(quantile(&latencies, 0.9));
        fixed.p99_us.push(quantile(&latencies, 0.99));
        fixed
            .answered_per_s
            .push(latencies.len() as f64 / ((to - from) as f64 / 1e9));
        fixed.answered += latencies.len();
        fixed.late_us.extend(late);
        fixed.offered += load.offered();
        fixed.completed += load.completed();
        fixed.failed += load.failed();
        fixed.requests += counter("serve.requests") - requests;
        fixed.batches += counter("serve.batches") - batches;
        let wait = histogram_delta("serve.queue.wait_us", &wait);
        match &mut fixed.queue_wait {
            None => fixed.queue_wait = Some(wait),
            Some(sum) => {
                sum.count += wait.count;
                sum.sum += wait.sum;
                for (s, w) in sum.buckets.iter_mut().zip(wait.buckets.iter()) {
                    *s += w;
                }
            }
        }
        let service = daemon.lifecycle.service();
        check_samples(ledger, &service, pool, &load.samples, "fixed-rate window");
        return Ok(());
    }
}

impl Fixed {
    /// Reports the fixed-rate figures: each latency quantile is the median
    /// over the windows of that window's quantile.
    fn report(&self, report: &mut Report) {
        report.set("query_p50_us", median(&self.p50_us), "us");
        report.set("query_p90_us", median(&self.p90_us), "us");
        report.set("query_p99_us", median(&self.p99_us), "us");
        report.set("loadgen.query_samples", self.answered as f64, "count");
        report.set("loadgen.invalid_windows", self.invalid as f64, "count");
        report.set("loadgen.late_p99_us", quantile(&self.late_us, 0.99), "us");
        report.set("loadgen.offered", self.offered as f64, "count");
        report.set("loadgen.completed", self.completed as f64, "count");
        report.set(
            "serve.batch_size_mean",
            self.requests as f64 / self.batches.max(1) as f64,
            "count",
        );
        let wait = |q| self.queue_wait.as_ref().map_or(0, |w| w.percentile(q)) as f64;
        report.set("serve.queue_wait_p50_us", wait(0.5), "us");
        report.set("serve.queue_wait_p99_us", wait(0.99), "us");
    }
}

/// Serving probes on the last cycle's idle daemon: single-request round
/// trips, in-process execution per query kind, and the capacity ladder.
#[allow(clippy::too_many_arguments)]
fn serve_probes(
    spec: &Spec,
    args: &Args,
    daemon: &Daemon,
    pool: &Arc<Vec<Query>>,
    fixed: &Fixed,
    tracer: &Tracer,
    report: &mut Report,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let addr = daemon.server.local_addr();
    let service = daemon.lifecycle.service();
    // One request in flight at a time.
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rtt_us = Vec::new();
    for q in pool.iter().take(400) {
        let (reply, took) = tracer.call("bench.serve.rtt", || client.query(q));
        ledger.attempted += 1;
        match reply {
            Ok(QueryReply::Error(_)) | Err(_) => ledger.failed += 1,
            Ok(_) => rtt_us.push(took.as_secs_f64() * 1e6),
        }
    }
    drop(client);
    report.set("serve.rtt_us", median(&rtt_us), "us");

    // In-process execution, no network, per query kind.
    for kind in ["support", "enumerate", "top_k", "generalized"] {
        let batch: Vec<Query> = pool
            .iter()
            .filter(|q| q.kind() == kind)
            .take(500)
            .cloned()
            .collect();
        let mut per_query = Vec::new();
        for _ in 0..3 {
            let (_, took) = tracer.call("bench.index.execute_batch", || {
                std::hint::black_box(service.execute_batch(&batch))
            });
            per_query.push(took.as_secs_f64() * 1e6 / batch.len().max(1) as f64);
        }
        report.set(&format!("index.exec_us.{kind}"), median(&per_query), "us");
    }

    // The capacity ladder: from the fixed rate, double while a rung holds,
    // then bisect (in log space) between the last rung that held and the
    // first that did not. A rung holds when every request is answered,
    // its p99 meets the latency limit, and the p90 of its last quarter
    // does too (no backlog left growing). A rung that misses is tried once
    // more, so one hiccup of the host does not end the climb.
    let rung = |rate: f64, ledger: &mut Ledger| -> Result<Option<f64>, String> {
        for _ in 0..2 {
            let (load, from, to) = load_for(addr, pool, rate, spec.rung_secs, args.seed)?;
            ledger.load(&load);
            check_samples(ledger, &service, pool, &load.samples, "capacity ladder");
            let answered = load.latencies_us(from, to);
            let p99 = quantile(&answered, 0.99);
            let tail_p90 = quantile(&load.latencies_us(to - (to - from) / 4, to), 0.9);
            if load.failed() == 0 && p99 <= LATENCY_LIMIT_US && tail_p90 <= LATENCY_LIMIT_US {
                return Ok(Some(answered.len() as f64 / ((to - from) as f64 / 1e9)));
            }
        }
        Ok(None)
    };
    // The fixed-rate windows are the ladder's first rung.
    let fixed_held = fixed.failed == 0 && median(&fixed.p99_us) <= LATENCY_LIMIT_US;
    let mut max_qps = if fixed_held {
        median(&fixed.answered_per_s)
    } else {
        0.0
    };
    let (mut lo, mut hi) = (FIXED_RATE, 2.0 * FIXED_RATE);
    if fixed_held {
        while hi <= LADDER_CAP {
            match rung(hi, ledger)? {
                Some(achieved) => {
                    max_qps = achieved;
                    lo = hi;
                    hi *= 2.0;
                }
                None => break,
            }
        }
    } else {
        // Even the fixed rate missed: halve until a rung holds.
        (lo, hi) = (FIXED_RATE / 2.0, FIXED_RATE);
        while lo >= LADDER_FLOOR {
            if let Some(achieved) = rung(lo, ledger)? {
                max_qps = achieved;
                break;
            }
            (lo, hi) = (lo / 2.0, lo);
        }
    }
    for _ in 0..BISECT_STEPS {
        let mid = (lo * hi).sqrt();
        match rung(mid, ledger)? {
            Some(achieved) => {
                max_qps = achieved;
                lo = mid;
            }
            None => hi = mid,
        }
    }
    ledger.check(max_qps > 0.0, || {
        "no rung of the capacity ladder met the latency limit".into()
    });
    report.set("query_max_qps", max_qps, "1/s");
    Ok(())
}

/// Refresh rounds gathered across the cycles.
#[derive(Default)]
struct Refreshes {
    refresh_s: Vec<f64>,
    round_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    /// Per round, the p99 of queries due while it ran.
    query_p99_us: Vec<f64>,
    sealed_bytes: u64,
    ingested_bytes: u64,
    /// Per compacting round, the time compaction took.
    compact_ms: Vec<f64>,
    compact_bytes_in: u64,
    compact_bytes_out: u64,
    throttled: usize,
    /// Generations in the last cycle's store after its rounds.
    generations: usize,
}

impl Refreshes {
    fn report(&self, spec: &Spec, report: &mut Report) {
        report.set("refresh_s", median(&self.refresh_s), "s");
        report.set("refresh.rounds", self.refresh_s.len() as f64, "count");
        report.set("serve.round_ms", median(&self.round_ms), "ms");
        report.set("store.ingest_ms", median(&self.ingest_ms), "ms");
        report.set("refresh_query_p99_us", median(&self.query_p99_us), "us");
        report.set("store.compact_ms", median(&self.compact_ms), "ms");
        report.set(
            "store.compact_throttled_rounds",
            self.throttled as f64,
            "count",
        );
        report.set(
            "store.compact_bytes_in",
            self.compact_bytes_in as f64 / spec.cycles as f64,
            "bytes",
        );
        report.set(
            "store.write_amp",
            (self.sealed_bytes + self.compact_bytes_out) as f64 / self.ingested_bytes.max(1) as f64,
            "ratio",
        );
        report.set("store.generations", self.generations as f64, "count");
    }
}

/// One cycle's ingest → refresh rounds under open-loop load, after which
/// the daemon is shut down; `chunks` are the sequences to ingest,
/// `grown_digest` the reference digest of the corpus after the last round.
#[allow(clippy::too_many_arguments)]
fn refresh_rounds(
    spec: &Spec,
    seed: u64,
    daemon: Daemon,
    chunks: Vec<Vec<ItemId>>,
    grown_digest: u64,
    pool: &Arc<Vec<Query>>,
    tracer: &Tracer,
    refreshes: &mut Refreshes,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let service = daemon.lifecycle.service();
    let Daemon {
        dir,
        corpus_dir,
        mut lifecycle,
        server,
    } = daemon;
    let stored = |dir: &Path| -> Result<(u64, usize), String> {
        let reader = CorpusReader::open(dir).map_err(|e| format!("open store: {e}"))?;
        let bytes = reader.generations().iter().map(|g| g.payload_bytes()).sum();
        Ok((bytes, reader.num_generations()))
    };
    let running = loadgen::start(
        server.local_addr(),
        Arc::clone(pool),
        spec.refresh_rate,
        seed,
    )
    .map_err(|e| format!("load connect: {e}"))?;
    std::thread::sleep(Duration::from_millis(200));
    let mut windows = Vec::new();
    let mut compacted = 0;
    let mut expected = CorpusReader::open(&corpus_dir)
        .map_err(|e| format!("open store: {e}"))?
        .manifest()
        .num_sequences;
    for (round, chunk) in chunks.chunks(spec.chunk).enumerate() {
        let chunk: Vec<&[ItemId]> = chunk.iter().map(Vec::as_slice).collect();
        refreshes.ingested_bytes += chunk.iter().map(|s| 4 * s.len() as u64).sum::<u64>();
        let (bytes_before, _) = stored(&corpus_dir)?;
        let t0_ns = running.now_ns();
        let (ingested, ingest_d) = tracer.call("bench.serve.ingest", || lifecycle.ingest(chunk));
        let (bytes_after, _) = stored(&corpus_dir)?;
        refreshes.sealed_bytes += bytes_after.saturating_sub(bytes_before);
        let (stats, round_d) = tracer.call("bench.serve.refresh", || lifecycle.refresh());
        windows.push((t0_ns, running.now_ns()));
        ledger.attempted += 1;
        let stats = match (ingested, stats) {
            (Ok(n), Ok(stats)) => {
                expected += n;
                stats
            }
            (a, b) => {
                ledger.failed += 1;
                ledger.problems.push(format!(
                    "round {round} failed: {:?} / {:?}",
                    a.err().map(|e| e.to_string()),
                    b.err().map(|e| e.to_string())
                ));
                continue;
            }
        };
        // Freshness: the two calls, without the bookkeeping between them.
        refreshes.refresh_s.push((ingest_d + round_d).as_secs_f64());
        refreshes.round_ms.push(ms(round_d));
        refreshes.ingest_ms.push(ms(ingest_d));
        let live = service.snapshot().num_patterns();
        ledger.check(
            stats.sequences == expected && live == stats.patterns,
            || {
                format!(
                    "round {round}: {} sequences / {live} live patterns, expected {expected} / {}",
                    stats.sequences, stats.patterns
                )
            },
        );
        if let Some(c) = &stats.compaction {
            compacted += 1;
            refreshes.compact_ms.push(ms(c.elapsed));
            if !c.throttle_wait.is_zero() {
                refreshes.throttled += 1;
            }
            refreshes.compact_bytes_in += c.payload_bytes_in;
            refreshes.compact_bytes_out += c.payload_bytes_out;
        }
    }
    // A quiet tail on the final snapshot, for the served-reply check.
    let tail_from = running.now_ns();
    std::thread::sleep(Duration::from_millis(300));
    let load = running.stop();
    server.shutdown();
    ledger.load(&load);
    // Replies served by the final snapshot can be checked against it.
    let tail: Vec<Sample> = load
        .samples
        .iter()
        .filter(|s| s.due_ns >= tail_from)
        .cloned()
        .collect();
    check_samples(ledger, &service, pool, &tail, "refresh tail");
    refreshes.query_p99_us.extend(
        windows
            .iter()
            .map(|&(from, to)| quantile(&load.latencies_us(from, to), 0.99)),
    );
    refreshes.generations = stored(&corpus_dir)?.1;
    if spec.rounds >= 4 {
        ledger.check(compacted > 0, || "no refresh round compacted".into());
    }

    // The live index after the rounds equals the in-memory mine of
    // everything ingested.
    let (live, n) = index_digest(&service.snapshot())?;
    ledger.check(live == grown_digest, || {
        format!("live index after refresh ({n} patterns) differs from the in-memory mine")
    });
    drop((lifecycle, service));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
