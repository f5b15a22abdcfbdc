//! `sessionbench`: closed-loop, single-client benchmark of whole learning sessions against the
//! `qbe-server` binary over loopback TCP.
//!
//! ```text
//! sessionbench --server <qbe-server binary> --workload <twig-small|graph-medium|join-persist>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run launches the server several times to measure set-up time, times a fixed, seeded
//! list of sessions on the last launch, reconciles the server's `METRICS` with its own
//! counts, checks every session against an in-process replay of the same seed, and prints a
//! table followed by one JSON line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! records client spans on half of the sessions, replays every session in-process with
//! spans around each layer, and reports the per-layer metrics. See `README.md` beside this
//! package for what each metric should move.

mod persist;
mod replay;
mod server;
mod session;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use qbe_core::store::WalRecord;
use qbe_server::Client;

use crate::replay::{replay, Replayed};
use crate::server::ServerProcess;
use crate::session::{run_session, Goals, SessionRun};
use crate::stats::{mean, median, percentile, quiet_median};
use crate::trace::Tracer;
use crate::workload::{SessionSpec, Workload, LAUNCHES, LIVE_SESSIONS};

/// Scratch space inside the checkout the benchmark runs from.
const WORK_ROOT: &str = ".bench_run";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a non-negative integer"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name:?}, expected one of {}",
            names.join("|")
        )
    })?;
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        server: PathBuf::from(value("--server")?),
    })
}

/// A directory removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the client did on one server process, to reconcile with its `METRICS`.
#[derive(Debug, Default, Clone, Copy)]
struct Ledger {
    sessions: u64,
    questions: u64,
    /// WAL records the sessions caused: `Start`, one `Answer` per question, `Close`.
    records: u64,
}

impl Ledger {
    fn add(&mut self, run: &SessionRun) {
        self.sessions += 1;
        self.questions += run.questions as u64;
        self.records += run.questions as u64 + 2;
    }
}

fn metrics_of(addr: std::net::SocketAddr) -> Result<BTreeMap<String, u64>, String> {
    let fields = Client::connect(addr)
        .and_then(|mut c| {
            let m = c.metrics();
            c.quit()?;
            m
        })
        .map_err(|e| format!("METRICS failed: {e}"))?;
    Ok(fields
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.parse::<u64>().ok()?)))
        .collect())
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// The [`quiet_median`] of each chunk's median of `sample`; an error when too few
    /// samples lie beyond the run's pooled median. The note shows the pooled p50 and, when
    /// the run has enough samples for it, the pooled p90. The p90s are shown, not reported:
    /// session-level ones need 100 sessions, more than the twig workload runs, and turn p90s
    /// on a shared host move by a third from run to run.
    fn chunked_p50(
        &mut self,
        name: &str,
        t: &Timings<'_>,
        sample: impl Fn(&SessionRun) -> Vec<f64>,
        unit: &'static str,
    ) -> Result<(), String> {
        let (mut medians, mut steal, mut pooled) = (Vec::new(), Vec::new(), Vec::new());
        for (chunk, &stolen) in t.chunks.iter().zip(t.chunk_steal) {
            let samples: Vec<f64> = chunk.iter().flat_map(|run| sample(run)).collect();
            if !samples.is_empty() {
                medians.push(median(&samples));
                steal.push(stolen);
                pooled.extend(samples);
            }
        }
        let p50 = percentile(&pooled, 50.0)
            .ok_or_else(|| format!("{name}: {} samples are too few", pooled.len()))?;
        let (value, quiet) = quiet_median(&medians, &steal);
        let mut note = format!(
            "median of {quiet} quiet of {} chunk medians; pooled n={} p50 {p50:.4}",
            medians.len(),
            pooled.len()
        );
        if let Some(p90) = percentile(&pooled, 90.0) {
            note.push_str(&format!(" p90 {p90:.4}"));
        }
        self.add(name, value, unit, note);
        Ok(())
    }

    /// A percentile of `samples`; an error when too few samples lie beyond it.
    fn percentile(
        &mut self,
        name: &str,
        samples: &[f64],
        p: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let value = percentile(samples, p)
            .ok_or_else(|| format!("{name}: {} samples are too few", samples.len()))?;
        self.add(name, value, unit, format!("n={}", samples.len()));
        Ok(())
    }

    /// A per-layer percentile: 0 when the workload never reached the layer.
    fn layer(
        &mut self,
        name: &str,
        samples: &[f64],
        p: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        if samples.is_empty() {
            self.add(name, 0.0, unit, "layer not reached".to_string());
            return Ok(());
        }
        self.percentile(name, samples, p, unit)
    }
}

/// Everything one run produced.
struct Outcome {
    /// Share of the host's CPU time stolen by other guests during the timed phase.
    steal_pct: f64,
    attempted: usize,
    failed: usize,
    correct: bool,
    report: Report,
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sessionbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("sessionbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "sessionbench {} seed={} seconds={} trace={}: {} attempted, {} failed, correct={} \
         (CPU steal {:.1}% during the timed phase)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.correct,
        outcome.steal_pct
    );
    for m in &outcome.report.metrics {
        println!(
            "  {:<36} {:>14.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let metrics: Vec<String> = outcome
        .report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !outcome.correct {
        eprintln!("sessionbench: the run FAILED its correctness checks");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let corpus_name = w.corpus();
    let corpus = qbe_server::build_corpus(corpus_name)
        .ok_or_else(|| format!("unknown corpus {corpus_name}"))?;
    let mut goals = Goals::new(&corpus);
    let work = WorkDir(Path::new(WORK_ROOT).join(format!("{}-{}", w.name(), std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("cannot create {WORK_ROOT}: {e}"))?;

    // Untimed: the persisting workload's data directory (snapshot + WAL of live sessions).
    let pristine = work.0.join("pristine");
    if w.persist() {
        persist::write_data_dir(&pristine, &corpus, args.seed, LIVE_SESSIONS)
            .map_err(|e| format!("cannot write the data directory: {e}"))?;
    }

    // Set-up: launch, listen, warm up — several times; the last launch serves the run.
    let warmup = w.sessions(args.seed, w.warmup_sessions());
    let mut setups = Vec::new();
    let mut setup_steal = Vec::new();
    let mut listens = Vec::new();
    let mut server = None;
    let mut data_dir = None;
    let mut ledger = Ledger::default();
    for launch in 0..LAUNCHES {
        drop(server.take());
        let dir = if w.persist() {
            let dir = work.0.join(format!("data-{launch}"));
            persist::copy_dir(&pristine, &dir).map_err(|e| format!("copying data: {e}"))?;
            Some(dir)
        } else {
            None
        };
        let ticks = cpu_ticks();
        let start = Instant::now();
        let (process, listened) = ServerProcess::launch(&args.server, dir.as_deref())?;
        ledger = Ledger::default();
        for spec in &warmup {
            let run = run_session(process.addr, corpus_name, spec, &mut goals, None, 0)
                .map_err(|e| format!("warm-up session failed: {e}"))?;
            ledger.add(&run);
        }
        setups.push(start.elapsed().as_secs_f64());
        setup_steal.push(steal_share(&ticks, &cpu_ticks()));
        listens.push(listened.as_secs_f64());
        server = Some(process);
        data_dir = dir;
    }
    let server = server.expect("every workload launches at least once");
    let addr = server.addr;
    let wal_bytes = || {
        data_dir
            .as_ref()
            .and_then(|d| std::fs::metadata(d.join(persist::WAL_FILE)).ok())
            .map_or(0, |m| m.len())
    };

    // Timed phase: the fixed session list, in chunks of about half a second of work.
    let timed = w.sessions(args.seed, w.timed_sessions(args.seconds));
    let traced: Vec<bool> = (0..timed.len())
        .map(|i| args.trace && w.traced(i))
        .collect();
    let mut tracer = Tracer::new();
    let before = metrics_of(addr)?;
    let bytes_before = wal_bytes();
    let cpu_before = cpu_ticks();
    let mut ticks = cpu_before.clone();
    let mut runs = Vec::with_capacity(timed.len());
    let mut chunk_rates = Vec::new();
    let mut chunk_steal = Vec::new();
    let chunk_len = w.chunk_len();
    for (c, chunk) in timed.chunks(chunk_len).enumerate() {
        let start = Instant::now();
        for (j, spec) in chunk.iter().enumerate() {
            let i = c * chunk_len + j;
            let spans = traced[i].then_some(&mut tracer);
            runs.push(run_session(addr, corpus_name, spec, &mut goals, spans, i));
        }
        chunk_rates.push(chunk.len() as f64 / start.elapsed().as_secs_f64());
        let now = cpu_ticks();
        chunk_steal.push(steal_share(&ticks, &now));
        ticks = now;
    }
    let steal_pct = steal_share(&cpu_before, &ticks) * 100.0;
    let last = metrics_of(addr)?;
    let persisted = |m: &BTreeMap<String, u64>| m.get("persisted").copied().unwrap_or(0);
    let log_growth = (
        persisted(&last).saturating_sub(persisted(&before)),
        wal_bytes().saturating_sub(bytes_before),
    );
    let peak_rss_mb = server.peak_rss_mb()?;
    drop(server);

    // Reconcile the server's counters with the client's own.
    for run in runs.iter().flatten() {
        ledger.add(run);
    }
    let expected = [
        ("sessions", ledger.sessions),
        ("total_questions", ledger.questions),
        ("persisted", if w.persist() { ledger.records } else { 0 }),
        (
            "recovered",
            if w.persist() { LIVE_SESSIONS as u64 } else { 0 },
        ),
    ];
    let mut correct = true;
    for (key, want) in expected {
        let got = last.get(key).copied();
        if got != Some(want) {
            eprintln!("sessionbench: METRICS {key}={got:?}, but the client counts {want}");
            correct = false;
        }
    }
    let refused: u64 = ["shed", "rejected", "timeouts"]
        .iter()
        .map(|k| last.get(*k).copied().unwrap_or(0))
        .sum();

    // Check every session against the in-process replay of the same seed.
    let mut expected_by_key: BTreeMap<_, Replayed> = BTreeMap::new();
    if args.trace {
        for (i, spec) in timed.iter().enumerate() {
            let replayed = replay(&corpus, &goals, spec, Some(&mut tracer), i);
            if let Some(earlier) = expected_by_key.insert(spec.key(), replayed.clone()) {
                if earlier != replayed {
                    eprintln!(
                        "sessionbench: replays of {spec:?} differ: {earlier:?} vs {replayed:?}"
                    );
                    correct = false;
                }
            }
        }
    } else {
        for spec in &timed {
            expected_by_key
                .entry(spec.key())
                .or_insert_with(|| replay(&corpus, &goals, spec, None, 0));
        }
    }
    let mut failed = refused as usize;
    for (spec, run) in timed.iter().zip(&runs) {
        let want = &expected_by_key[&spec.key()];
        let problem = match run {
            Err(e) => Some(e.clone()),
            Ok(run) => check(run, want),
        };
        if let Some(problem) = problem {
            eprintln!("sessionbench: session {spec:?} FAILED: {problem}");
            failed += 1;
        }
    }
    correct &= failed == 0;
    let attempted = runs.len();

    let mut report = Report::default();
    if args.trace {
        let half = |want: bool| -> Vec<f64> {
            runs.iter()
                .zip(&traced)
                .filter(|(_, &t)| t == want)
                .filter_map(|(run, _)| run.as_ref().ok().map(|r| r.session_ms))
                .collect()
        };
        layer_metrics(
            &mut report,
            LayerInputs {
                workload: w,
                corpus: &corpus,
                tracer: &tracer,
                timed: &timed,
                runs: &runs,
                untraced_p50: percentile(&half(false), 50.0),
                traced_p50: percentile(&half(true), 50.0),
                log_growth,
                listens: &listens,
                pristine: &pristine,
                work: &work.0,
                server: &last,
            },
        )?;
        let spans = Path::new(WORK_ROOT).join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
        tracer
            .write_tsv(&spans)
            .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    } else {
        let chunks: Vec<Vec<&SessionRun>> = runs
            .chunks(chunk_len)
            .map(|chunk| chunk.iter().flatten().collect())
            .collect();
        end_to_end_metrics(
            &mut report,
            Timings {
                chunks: &chunks,
                chunk_steal: &chunk_steal,
                chunk_rates: &chunk_rates,
                setups: &setups,
                setup_steal: &setup_steal,
            },
            peak_rss_mb,
        )?;
    }
    Ok(Outcome {
        steal_pct,
        attempted,
        failed,
        correct,
        report,
    })
}

/// The aggregate CPU tick counters of `/proc/stat` (empty where unavailable).
fn cpu_ticks() -> Vec<u64> {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            Some(
                line.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect(),
            )
        })
        .unwrap_or_default()
}

/// Stolen ticks (the eighth counter) as a share of all ticks between two readings: how
/// much CPU time other guests of a virtualised host took, the main source of noise.
fn steal_share(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let total: u64 = delta.iter().sum();
    match delta.get(7) {
        Some(&steal) if total > 0 => steal as f64 / total as f64,
        _ => 0.0,
    }
}

/// Why a session's replies differ from the replay of its seed, if they do.
fn check(run: &SessionRun, want: &Replayed) -> Option<String> {
    if run.questions != want.questions {
        return Some(format!(
            "{} questions, the replay asks {}",
            run.questions, want.questions
        ));
    }
    if want.hypothesis.as_deref() != Some(run.hypothesis.as_str()) {
        return Some(format!(
            "QUERY {:?}, the replay learns {:?}",
            run.hypothesis, want.hypothesis
        ));
    }
    if run.answer_set != want.answer_set {
        return Some(format!(
            "EVAL {}, the replay's answer set has {}",
            run.answer_set, want.answer_set
        ));
    }
    None
}

/// The timed phase's sessions in chunks, and what set-up and each chunk cost.
struct Timings<'a> {
    chunks: &'a [Vec<&'a SessionRun>],
    /// Share of CPU time the host stole during each chunk.
    chunk_steal: &'a [f64],
    /// Sessions per second of each chunk.
    chunk_rates: &'a [f64],
    /// Seconds from launch to the warm-up sessions answered, per launch.
    setups: &'a [f64],
    /// Share of CPU time the host stole during each launch.
    setup_steal: &'a [f64],
}

fn end_to_end_metrics(report: &mut Report, t: Timings<'_>, peak_rss_mb: f64) -> Result<(), String> {
    let (setup, quiet) = quiet_median(t.setups, t.setup_steal);
    report.add(
        "setup_s",
        setup,
        "s",
        format!("median of {quiet} quiet of {} launches", t.setups.len()),
    );
    let (rate, quiet) = quiet_median(t.chunk_rates, t.chunk_steal);
    report.add(
        "sessions_per_s",
        rate,
        "1/s",
        format!(
            "median of {quiet} quiet of {} consecutive chunks, {:.4}..{:.4}",
            t.chunk_rates.len(),
            t.chunk_rates.iter().copied().fold(f64::INFINITY, f64::min),
            t.chunk_rates.iter().copied().fold(0.0, f64::max)
        ),
    );
    report.chunked_p50("session_ms.p50", &t, |r| vec![r.session_ms], "ms")?;
    report.chunked_p50(
        "first_question_ms.p50",
        &t,
        |r| vec![r.first_question_ms],
        "ms",
    )?;
    report.chunked_p50("turn_ms.p50", &t, |r| r.turn_ms.clone(), "ms")?;
    report.chunked_p50("finish_ms.p50", &t, |r| vec![r.finish_ms], "ms")?;
    let ok: Vec<&SessionRun> = t.chunks.iter().flatten().copied().collect();
    let questions: Vec<f64> = ok.iter().map(|r| r.questions as f64).collect();
    report.add(
        "questions_per_session",
        mean(&questions),
        "count",
        format!("n={}", questions.len()),
    );
    report.add("peak_rss_mb", peak_rss_mb, "MB", "VmHWM".to_string());
    Ok(())
}

struct LayerInputs<'a> {
    workload: Workload,
    corpus: &'a qbe_server::Corpus,
    tracer: &'a Tracer,
    timed: &'a [SessionSpec],
    runs: &'a [Result<SessionRun, String>],
    untraced_p50: Option<f64>,
    traced_p50: Option<f64>,
    /// WAL records and bytes the server appended during the timed phase.
    log_growth: (u64, u64),
    listens: &'a [f64],
    pristine: &'a Path,
    work: &'a Path,
    server: &'a BTreeMap<String, u64>,
}

/// Pairwise differences of two per-session step sequences (client round trip minus learner
/// time of the same step).
fn step_differences(
    outer: &BTreeMap<usize, Vec<f64>>,
    inner: &BTreeMap<usize, Vec<f64>>,
) -> Vec<f64> {
    outer
        .iter()
        .filter_map(|(trace, rtts)| Some((rtts, inner.get(trace)?)))
        .flat_map(|(rtts, learner)| rtts.iter().zip(learner).map(|(r, l)| r - l))
        .collect()
}

fn layer_metrics(report: &mut Report, input: LayerInputs<'_>) -> Result<(), String> {
    let t = input.tracer;
    report.layer("learner.open_us.p50", &t.micros("learner.open"), 50.0, "us")?;
    let propose = t.micros("learner.propose");
    report.layer("learner.propose_us.p50", &propose, 50.0, "us")?;
    report.layer("learner.propose_us.p90", &propose, 90.0, "us")?;
    report.layer(
        "learner.answer_us.p50",
        &t.micros("learner.answer"),
        50.0,
        "us",
    )?;
    report.layer("learner.done_us.p50", &t.micros("learner.done"), 50.0, "us")?;
    report.layer(
        "learner.hypothesis_us.p50",
        &t.micros("learner.hypothesis"),
        50.0,
        "us",
    )?;
    report.layer(
        "learner.answer_set_us.p50",
        &t.micros("learner.answer_set"),
        50.0,
        "us",
    )?;
    report.layer("twig.select_us.p50", &t.micros("twig.select"), 50.0, "us")?;
    report.add(
        "bitset.and_count_ns",
        replay::probe_bitset_and_count(input.corpus),
        "ns",
        "median of 5 batches over label-posting pairs".to_string(),
    );
    report.layer(
        "graph.index_build_us.p50",
        &t.micros("graph.index_build"),
        50.0,
        "us",
    )?;
    report.layer(
        "graph.enumerate_us.p50",
        &t.micros("graph.enumerate"),
        50.0,
        "us",
    )?;
    report.layer(
        "algebra.eval_candidates_us.p50",
        &t.micros("algebra.eval_candidates"),
        50.0,
        "us",
    )?;
    let (hits, misses) = (
        t.counter("algebra.cache_hits"),
        t.counter("algebra.cache_misses"),
    );
    report.add(
        "algebra.cache_hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        "ratio",
        format!("{hits} hits of {} lookups", hits + misses),
    );
    let by_trace = |name: &str| t.micros_by_trace(name);
    let (index, enumerate, eval) = (
        by_trace("graph.index_build"),
        by_trace("graph.enumerate"),
        by_trace("algebra.eval_candidates"),
    );
    let residual: Vec<f64> = by_trace("learner.open")
        .iter()
        .filter_map(|(trace, open)| {
            Some(open[0] - index.get(trace)?[0] - enumerate.get(trace)?[0] - eval.get(trace)?[0])
        })
        .collect();
    report.layer("graph.open_residual_us.p50", &residual, 50.0, "us")?;

    for verb in ["start", "ask", "answer", "done", "query", "eval", "quit"] {
        let samples = t.micros(&format!("client.{verb}"));
        report.layer(&format!("server.rtt_us.{verb}.p50"), &samples, 50.0, "us")?;
    }
    for (verb, learner) in [
        ("start", "learner.open"),
        ("ask", "learner.propose"),
        ("answer", "learner.answer"),
    ] {
        let client = by_trace(&format!("client.{verb}"));
        let overhead = step_differences(&client, &by_trace(learner));
        report.layer(
            &format!("server.overhead_us.{verb}.p50"),
            &overhead,
            50.0,
            "us",
        )?;
    }

    // The store layer: only the persisting workload's server writes a WAL.
    let mut store_tracer = Tracer::new();
    let (mut records_per_session, mut bytes_per_session) = (0.0, 0.0);
    let (mut snapshot_ms, mut recover_ms, mut replay_us) = (0.0, 0.0, 0.0);
    if input.workload.persist() {
        let sessions = input.timed.len() as f64;
        records_per_session = input.log_growth.0 as f64 / sessions;
        bytes_per_session = input.log_growth.1 as f64 / sessions;
        let stream = record_stream(input.workload.corpus(), input.timed, input.runs);
        persist::probe_wal_appends(&input.work.join("probe.qbew"), &stream, &mut store_tracer)
            .map_err(|e| format!("WAL probe failed: {e}"))?;
        let mut opens = Vec::new();
        let mut recovers = Vec::new();
        for _ in 0..3 {
            opens.push(
                persist::time_snapshot_open(input.pristine, input.workload.corpus())
                    .map_err(|e| format!("snapshot probe failed: {e}"))?,
            );
            recovers.push(
                persist::time_wal_recover(input.pristine)
                    .map_err(|e| format!("WAL recover probe failed: {e}"))?,
            );
        }
        snapshot_ms = median(&opens);
        recover_ms = median(&recovers);
        let boot_ms = median(input.listens) * 1e3;
        replay_us = (boot_ms - snapshot_ms - recover_ms) * 1e3 / LIVE_SESSIONS as f64;
    }
    report.layer(
        "wal.append_us.p50",
        &store_tracer.micros("wal.append"),
        50.0,
        "us",
    )?;
    report.layer(
        "wal.sync_us.p50",
        &store_tracer.micros("wal.sync"),
        50.0,
        "us",
    )?;
    report.add(
        "wal.records_per_session",
        records_per_session,
        "count",
        format!("{} records", input.log_growth.0),
    );
    report.add(
        "wal.bytes_per_session",
        bytes_per_session,
        "B",
        format!("{} bytes", input.log_growth.1),
    );
    let store_note = |note: String| {
        if input.workload.persist() {
            note
        } else {
            "layer not reached".to_string()
        }
    };
    report.add(
        "snapshot.open_ms",
        snapshot_ms,
        "ms",
        store_note("median of 3".to_string()),
    );
    report.add(
        "wal.recover_ms",
        recover_ms,
        "ms",
        store_note("median of 3".to_string()),
    );
    report.add(
        "recovery.replay_us_per_session",
        replay_us,
        "us",
        store_note(format!("(boot - open - recover) / {LIVE_SESSIONS}")),
    );

    for key in [
        "sessions",
        "total_questions",
        "persisted",
        "recovered",
        "reasks",
        "shed",
        "rejected",
        "timeouts",
    ] {
        let value = input.server.get(key).copied().unwrap_or(0);
        report.add(
            format!("server.{key}"),
            value as f64,
            "count",
            "METRICS".to_string(),
        );
    }
    let overhead = match (input.untraced_p50, input.traced_p50) {
        (Some(untraced), Some(traced)) => (traced - untraced) / untraced * 100.0,
        _ => return Err("too few sessions to compare traced and untraced runs".to_string()),
    };
    report.add(
        "trace.overhead_pct",
        overhead,
        "%",
        "traced vs untraced session_ms.p50".to_string(),
    );
    Ok(())
}

/// The WAL records the server appended for the timed sessions, in order, with the
/// session's ordinal as the trace id.
fn record_stream(
    corpus: &str,
    timed: &[SessionSpec],
    runs: &[Result<SessionRun, String>],
) -> Vec<(usize, WalRecord)> {
    let mut stream = Vec::new();
    for (i, (spec, run)) in timed.iter().zip(runs).enumerate() {
        let Ok(run) = run else { continue };
        stream.push((
            i,
            WalRecord::Start {
                session: run.id,
                corpus: corpus.to_string(),
                model: spec.model.name().to_string(),
                params: spec
                    .params()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            },
        ));
        for &positive in &run.answers {
            stream.push((
                i,
                WalRecord::Answer {
                    session: run.id,
                    positive,
                },
            ));
        }
        stream.push((i, WalRecord::Close { session: run.id }));
    }
    stream
}
