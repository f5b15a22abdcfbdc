//! In-memory spans recorded around calls into each layer, written out when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was created), and the
//! trace id it belongs to: every span of one session — the client's round trips over TCP and
//! the in-process replay's learner calls alike — shares the session's ordinal in the timed
//! list as its trace id.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Session ordinal in the timed list.
    pub trace: usize,
    /// Layer boundary name, such as `learner.propose` or `client.ask`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span and counter store for one run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`.
    pub fn record(&mut self, trace: usize, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            trace,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        };
        self.spans.push(span);
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(&mut self, trace: usize, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(trace, name, start, Instant::now());
        out
    }

    /// Add `n` to a named counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_default() += n;
    }

    /// A counter's total (0 when never counted).
    pub fn counter(&self, name: &'static str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Durations (µs) of every span with this name, in recording order.
    pub fn micros(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Durations (µs) of the spans with this name, grouped by trace id in recording order —
    /// the per-session step sequence of one layer boundary.
    pub fn micros_by_trace(&self, name: &str) -> BTreeMap<usize, Vec<f64>> {
        let mut grouped: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            grouped.entry(span.trace).or_default().push(span.micros());
        }
        grouped
    }

    /// Write every span (tab-separated, one per line) and counter to `path`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "trace\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(out, "{}\t{}\t{}\t{}", s.trace, s.name, s.start_ns, s.end_ns)?;
        }
        for (name, value) in &self.counters {
            writeln!(out, "#counter\t{name}\t{value}")?;
        }
        out.flush()
    }
}
