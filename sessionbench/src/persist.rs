//! The `join-persist` data directory: a corpus snapshot plus a session WAL of live, partly
//! answered join sessions, written through the public store API before the timed launch.
//! Also the in-process probes of the store layer for traced runs.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

use qbe_core::store::wal::{self, WalRecord};
use qbe_core::store::{snapshot, CorpusSnapshot, FileBackend, SnapshotReader};
use qbe_core::{InteractiveLearner, JoinInteractive, SessionConfig};
use qbe_server::corpus::{corpus_to_snapshot, snapshot_path};
use qbe_server::Corpus;

use crate::trace::Tracer;
use crate::workload::splitmix64;

/// The WAL file name inside a server data directory.
pub const WAL_FILE: &str = "sessions.qbew";

/// Records the server's WAL writer appends between fsyncs (its default batch).
const SYNC_EVERY: u32 = wal::WalWriter::DEFAULT_SYNC_EVERY;

fn store_error(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Write the snapshot of `corpus` and a WAL of `live` open join sessions into `dir`.
///
/// Session `i` (id `i + 1`) gets a seed and an answer count of 1–4 derived from `seed`; the
/// answers come from the in-process learner with the corpus's demo goal, so boot-time
/// replay accepts them. Records are interleaved round by round, as concurrent clients
/// would leave them.
pub fn write_data_dir(dir: &Path, corpus: &Corpus, seed: u64, live: usize) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    snapshot::write_atomic(
        &snapshot_path(dir, &corpus.name),
        &corpus_to_snapshot(corpus).encode(),
    )?;
    let sessions: Vec<(u64, u64, Vec<bool>)> = (0..live)
        .map(|i| {
            let h = splitmix64(seed ^ splitmix64(i as u64));
            let session_seed = h >> 40;
            let answered = 1 + (h % 4) as usize;
            let mut learner = JoinInteractive::with_config(
                corpus.left.clone(),
                corpus.right.clone(),
                SessionConfig::new().seed(session_seed),
            )
            .with_goal(corpus.demo_join_goal.clone());
            let mut answers = Vec::with_capacity(answered);
            while answers.len() < answered && learner.propose_pending() {
                let positive = learner.oracle_answer().expect("a question is pending");
                learner.answer(positive).expect("a question is pending");
                answers.push(positive);
            }
            (i as u64 + 1, session_seed, answers)
        })
        .collect();

    let (existing, mut writer) = wal::recover(&dir.join(WAL_FILE)).map_err(store_error)?;
    if !existing.is_empty() {
        return Err(io::Error::other("the data directory already holds a WAL"));
    }
    for (id, session_seed, _) in &sessions {
        writer.append(&WalRecord::Start {
            session: *id,
            corpus: corpus.name.clone(),
            model: "join".to_string(),
            params: vec![("seed".to_string(), session_seed.to_string())],
        })?;
    }
    for round in 0..4 {
        for (id, _, answers) in &sessions {
            if let Some(&positive) = answers.get(round) {
                writer.append(&WalRecord::Answer {
                    session: *id,
                    positive,
                })?;
            }
        }
    }
    writer.sync()
}

/// Copy every file of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Milliseconds to open and decode the corpus snapshot in `dir`.
pub fn time_snapshot_open(dir: &Path, corpus: &str) -> io::Result<f64> {
    let start = Instant::now();
    let backend = FileBackend::open(&snapshot_path(dir, corpus))?;
    let reader = SnapshotReader::open(backend).map_err(store_error)?;
    let decoded = CorpusSnapshot::decode(&reader).map_err(store_error)?;
    let elapsed = start.elapsed();
    black_box(decoded);
    Ok(elapsed.as_secs_f64() * 1e3)
}

/// Milliseconds to recover (read, validate and parse) the WAL in `dir`.
pub fn time_wal_recover(dir: &Path) -> io::Result<f64> {
    let start = Instant::now();
    let recovered = wal::recover(&dir.join(WAL_FILE)).map_err(store_error)?;
    let elapsed = start.elapsed();
    black_box(recovered);
    Ok(elapsed.as_secs_f64() * 1e3)
}

/// Append `records` to a fresh WAL at `path` under the server's flush policy — an fsync
/// every [`SYNC_EVERY`] records and after every `Close` — recording `wal.append` and
/// `wal.sync` spans under each record's trace id.
pub fn probe_wal_appends(
    path: &Path,
    records: &[(usize, WalRecord)],
    tracer: &mut Tracer,
) -> io::Result<()> {
    let _ = std::fs::remove_file(path);
    let (_, mut writer) = wal::recover_with_sync_every(path, u32::MAX).map_err(store_error)?;
    for (trace, record) in records {
        let start = Instant::now();
        writer.append(record)?;
        tracer.record(*trace, "wal.append", start, Instant::now());
        let closes = matches!(record, WalRecord::Close { .. });
        if writer.pending() >= SYNC_EVERY || (closes && writer.pending() > 0) {
            let start = Instant::now();
            writer.sync()?;
            tracer.record(*trace, "wal.sync", start, Instant::now());
        }
    }
    drop(writer);
    std::fs::remove_file(path)
}
