//! Out-of-core storage for the semester driver: spill-to-disk shard
//! runs and a hierarchical k-way merge with O(shard) peak memory.
//!
//! With in-memory storage every shard appends its ledger to one cohort
//! ledger, which the merge sorts in place, so peak RSS is O(cohort) —
//! ~1.8 GB at 1M students, whose 31.8M records of 56 bytes sit in that
//! one buffer.
//! With [`Storage::Spill`](crate::semester::Storage::Spill) the
//! *simulation* is identical but each shard's ledger goes to an on-disk
//! **run** the moment the shard finishes, releasing its buffer, and the
//! driver consumes the runs incrementally:
//!
//! 1. **Spill** (`merge.spill` phase): each shard's ledger is sorted
//!    canonically and encoded into `run-0-<shard>.bin` with
//!    [`opml_testbed::ledger::UsageRecord::encode_into`]. A recording
//!    run's telemetry buffers and metrics snapshots never reach disk:
//!    the driver holds them in memory and replays them in shard order,
//!    exactly as under in-memory storage.
//! 2. **Merge** (`merge.spill` for intermediate passes, `merge.stream`
//!    for the final pass): runs are k-way merged with bounded
//!    read-ahead by [`StreamMerge`]. When the run count exceeds the
//!    merge fan-in, *contiguous* groups are merged into intermediate
//!    runs first — contiguity preserves the shard-index tie-break, so
//!    the final stream is byte-identical to the in-memory merge.
//! 3. **Consume**: the sink sees each merged record once, in canonical
//!    order; nothing cohort-sized is ever materialized.
//!
//! A run is read once: its source deletes the file on the pull that
//! finds it exhausted, and the directory goes once it is empty. A
//! cohort that fits in one shard never reaches this module, so it
//! touches no disk.
//!
//! Peak memory is O(threads × shard) during simulation and
//! O(fan-in × read-ahead) during the merge, plus every shard's trace
//! when telemetry is recording; peak disk is about twice the encoded
//! cohort ledger (one extra copy during an intermediate merge pass).
//!
//! All failure modes — I/O errors, truncated or corrupt run files —
//! surface as [`SpillError`], never a panic: the spill entry points are
//! detlint DL008 panic-freedom roots.

use crate::semester::{drive, LedgerSink, SemesterConfig, SemesterOutcome, ShardStore};
use opml_faults::FaultStats;
use opml_profiler::{phases, wall_phase};
use opml_simkernel::binio;
use opml_simkernel::parallel::with_thread_count;
use opml_telemetry::Telemetry;
use opml_testbed::ledger::{Ledger, RecordSource, StreamMerge, UsageRecord};
use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every spill-run file.
const MAGIC: &[u8; 8] = b"OPMLRUN2";

/// Record-encode buffer flush threshold while writing a run.
const WRITE_CHUNK: usize = 64 * 1024;

/// Per-run read-ahead buffer in bytes while reading runs back.
const READ_AHEAD: usize = 256 * 1024;

/// Maximum runs merged in one pass, and therefore the maximum number of
/// run files open at once.
const FANIN: usize = 64;

/// Where the out-of-core path keeps its run files.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory for run files. Created on demand; removed afterwards
    /// if it ends up empty.
    pub dir: PathBuf,
}

impl SpillConfig {
    /// Spill to run files in `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> SpillConfig {
        SpillConfig { dir: dir.into() }
    }
}

/// What went wrong in the out-of-core pipeline.
#[derive(Debug)]
pub enum SpillError {
    /// An I/O operation on a run file failed.
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// Underlying error.
        source: io::Error,
    },
    /// A run file decoded to something structurally impossible.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What was wrong.
        detail: String,
    },
}

impl SpillError {
    fn from_io(path: &Path, source: io::Error) -> SpillError {
        if source.kind() == io::ErrorKind::InvalidData {
            SpillError::Corrupt {
                path: path.to_path_buf(),
                detail: source.to_string(),
            }
        } else {
            SpillError::Io {
                path: path.to_path_buf(),
                source,
            }
        }
    }
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io { path, source } => {
                write!(f, "spill I/O error on {}: {source}", path.display())
            }
            SpillError::Corrupt { path, detail } => {
                write!(f, "corrupt spill run {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io { source, .. } => Some(source),
            SpillError::Corrupt { .. } => None,
        }
    }
}

/// Observability counters for one streaming run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Shard runs written to disk (0 on the single-shard path).
    pub shard_runs: usize,
    /// Intermediate merge passes (0 when the shard count fits the
    /// fan-in).
    pub merge_passes: usize,
    /// Intermediate runs written by those passes.
    pub intermediate_runs: usize,
    /// Total bytes written to spill files (shard runs + intermediates).
    pub spilled_bytes: u64,
    /// Largest number of run files open simultaneously.
    pub max_open_runs: usize,
}

/// Scalar outcome of a semester whose ledger went to a
/// [`LedgerSink`]: the out-of-core
/// path's result, since its ledger is never held.
#[derive(Debug, Default)]
pub struct StreamOutcome {
    /// Quota denials encountered (sum over shards).
    pub quota_denials: u64,
    /// Reservations pushed to a later slot (sum over shards).
    pub slot_pushbacks: u64,
    /// Fault-path statistics (fieldwise sum over shards).
    pub faults: FaultStats,
    /// Records delivered to the sink.
    pub records: u64,
    /// Spill pipeline counters (all zero under in-memory storage).
    pub stats: SpillStats,
}

impl StreamOutcome {
    /// One shard's scalars.
    pub(crate) fn of(outcome: &SemesterOutcome) -> StreamOutcome {
        StreamOutcome {
            quota_denials: outcome.quota_denials,
            slot_pushbacks: outcome.slot_pushbacks,
            faults: outcome.faults,
            records: outcome.ledger.records().len() as u64,
            stats: SpillStats::default(),
        }
    }

    /// Reunite the scalars with the ledger a sink materialized.
    pub fn with_ledger(self, ledger: Ledger) -> SemesterOutcome {
        SemesterOutcome {
            ledger,
            quota_denials: self.quota_denials,
            slot_pushbacks: self.slot_pushbacks,
            faults: self.faults,
        }
    }
}

/// Everything the merge needs to know about one run file without
/// holding any of its contents.
#[derive(Debug, Clone)]
pub(crate) struct RunRef {
    path: PathBuf,
    records: u64,
    /// Bytes written to the file.
    bytes: u64,
}

/// Simulate a full semester out of core, shards one after another on
/// the calling thread, delivering the merged canonical ledger
/// record-by-record to `consumer`: [`crate::semester::simulate_semester_exec`]
/// with spill storage on a pool pinned to one thread. Peak memory is
/// O(shard) when `telemetry` is disabled; a recording handle keeps every
/// shard's trace in memory until the replay.
pub fn simulate_semester_streaming_serial<F: FnMut(&UsageRecord)>(
    config: &SemesterConfig,
    seed: u64,
    telemetry: &Telemetry,
    spill: &SpillConfig,
    mut consumer: F,
) -> Result<StreamOutcome, SpillError> {
    with_thread_count(1, || {
        drive(config, seed, spill, telemetry, &mut |r: UsageRecord| {
            consumer(&r)
        })
    })
}

impl ShardStore for SpillConfig {
    type Run = RunRef;
    type Error = SpillError;

    /// Sort one shard's ledger canonically and write it as a run file.
    /// Consumes the ledger, releasing its buffer on return — this is
    /// what makes peak RSS O(shard) instead of O(cohort).
    fn store(&self, shard: u32, mut ledger: Ledger) -> Result<RunRef, SpillError> {
        let _phase = wall_phase(phases::MERGE_SPILL);
        ledger.sort_canonical();
        fs::create_dir_all(&self.dir).map_err(|e| SpillError::from_io(&self.dir, e))?;
        let path = self.dir.join(format!("run-0-{shard}.bin"));
        let records = ledger.records().len() as u64;
        let mut ledger = ledger.into_iter();
        let bytes = write_run(&path, records, || Ok(ledger.next()))?;
        Ok(RunRef {
            path,
            records,
            bytes,
        })
    }

    /// Stream one [`StreamMerge`] over the runs into `sink`, after any
    /// intermediate passes, and check that it delivered every record
    /// the shards wrote.
    fn drain(
        &self,
        runs: Vec<RunRef>,
        stats: &mut SpillStats,
        sink: &mut impl LedgerSink,
    ) -> Result<u64, SpillError> {
        let expected = runs.iter().map(|run| run.records).sum();
        let sources = self.sources(runs, stats)?;
        let merged = {
            let _phase = wall_phase(phases::MERGE_STREAM);
            sink.reserve(expected as usize);
            let mut merge = StreamMerge::new(sources)?;
            let mut merged = 0u64;
            while let Some(record) = merge.next()? {
                sink.push(record);
                merged += 1;
            }
            merged
        };
        // Every run deleted itself once read; this only removes the
        // directory if nothing else lives in it.
        let _ = fs::remove_dir(&self.dir);
        if merged != expected {
            return Err(SpillError::Corrupt {
                path: self.dir.clone(),
                detail: format!("merged {merged} records, shards produced {expected}"),
            });
        }
        Ok(merged)
    }
}

impl SpillConfig {
    /// Merge contiguous groups of runs into intermediate runs until one
    /// level fits the fan-in, then open that level for the final merge.
    fn sources(
        &self,
        runs: Vec<RunRef>,
        stats: &mut SpillStats,
    ) -> Result<Vec<RunRecordSource>, SpillError> {
        stats.shard_runs = runs.len();
        stats.spilled_bytes = runs.iter().map(|run| run.bytes).sum();
        let mut level = runs;
        while level.len() > FANIN {
            let _phase = wall_phase(phases::MERGE_SPILL);
            stats.merge_passes += 1;
            let mut next = Vec::with_capacity(level.len().div_ceil(FANIN));
            // Merging CONTIGUOUS groups, in order, preserves the global
            // shard-index tie-break: ties within a group keep their input
            // order (StreamMerge is index-stable), ties across groups are
            // resolved by group order, which equals shard order.
            for (gi, group) in level.chunks(FANIN).enumerate() {
                if let [only] = group {
                    // An undersized tail group passes through unmerged.
                    next.push(only.clone());
                    continue;
                }
                let path = self
                    .dir
                    .join(format!("run-{}-{gi}.bin", stats.merge_passes));
                let records = group.iter().map(|run| run.records).sum();
                let mut merge = StreamMerge::new(open_all(group)?)?;
                let bytes = write_run(&path, records, || merge.next())?;
                stats.max_open_runs = stats.max_open_runs.max(group.len());
                stats.spilled_bytes += bytes;
                stats.intermediate_runs += 1;
                next.push(RunRef {
                    path,
                    records,
                    bytes,
                });
            }
            level = next;
        }
        let _phase = wall_phase(phases::MERGE_STREAM);
        stats.max_open_runs = stats.max_open_runs.max(level.len());
        open_all(&level)
    }
}

/// Write a run file, `"OPMLRUN2" | record_count: u64 | records`, with
/// `records` records pulled from `next`. Returns the bytes written.
fn write_run(
    path: &Path,
    records: u64,
    mut next: impl FnMut() -> Result<Option<UsageRecord>, SpillError>,
) -> Result<u64, SpillError> {
    let io_err = |e| SpillError::from_io(path, e);
    let file = File::create(path).map_err(io_err)?;
    let mut w = BufWriter::with_capacity(WRITE_CHUNK, file);
    let mut buf = Vec::with_capacity(WRITE_CHUNK + 256);
    buf.extend_from_slice(MAGIC);
    binio::put_u64(&mut buf, records);
    let mut bytes = 0u64;
    let mut written = 0u64;
    while let Some(rec) = next()? {
        rec.encode_into(&mut buf);
        written += 1;
        if buf.len() >= WRITE_CHUNK {
            w.write_all(&buf).map_err(io_err)?;
            bytes += buf.len() as u64;
            buf.clear();
        }
    }
    w.write_all(&buf).map_err(io_err)?;
    bytes += buf.len() as u64;
    w.into_inner()
        .map_err(|e| io_err(e.into_error()))?
        .flush()
        .map_err(io_err)?;
    if written != records {
        return Err(SpillError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("wrote {written} records, header declares {records}"),
        });
    }
    Ok(bytes)
}

/// Read a run-file header, leaving the reader positioned at the first
/// record. Returns the record count.
fn read_header(r: &mut impl io::Read, path: &Path) -> Result<u64, SpillError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|e| SpillError::from_io(path, e))?;
    if &magic != MAGIC {
        return Err(SpillError::Corrupt {
            path: path.to_path_buf(),
            detail: format!("bad magic {magic:02x?}"),
        });
    }
    binio::read_u64(r).map_err(|e| SpillError::from_io(path, e))
}

/// A run file opened for streaming record decode: the bounded
/// read-ahead source feeding [`StreamMerge`].
pub(crate) struct RunRecordSource {
    path: PathBuf,
    reader: BufReader<File>,
    remaining: u64,
}

impl RunRecordSource {
    /// Open `run` and position at the first record. Decode is
    /// count-driven, so a truncated file surfaces as
    /// `UnexpectedEof` mid-stream rather than silently ending early.
    fn open(run: &RunRef) -> Result<RunRecordSource, SpillError> {
        let path = run.path.clone();
        let file = File::open(&path).map_err(|e| SpillError::from_io(&path, e))?;
        let mut reader = BufReader::with_capacity(READ_AHEAD, file);
        let record_count = read_header(&mut reader, &path)?;
        if record_count != run.records {
            return Err(SpillError::Corrupt {
                path,
                detail: format!(
                    "header says {record_count} records, merge plan expected {}",
                    run.records
                ),
            });
        }
        Ok(RunRecordSource {
            path,
            reader,
            remaining: record_count,
        })
    }
}

impl RecordSource for RunRecordSource {
    type Error = SpillError;

    fn next_record(&mut self) -> Result<Option<UsageRecord>, SpillError> {
        if self.remaining == 0 {
            // A run is read once: the pull that finds it exhausted
            // deletes it.
            let _ = fs::remove_file(&self.path);
            return Ok(None);
        }
        match UsageRecord::decode_from(&mut self.reader) {
            Ok(rec) => {
                self.remaining -= 1;
                Ok(Some(rec))
            }
            Err(e) => Err(SpillError::from_io(&self.path, e)),
        }
    }
}

fn open_all(runs: &[RunRef]) -> Result<Vec<RunRecordSource>, SpillError> {
    runs.iter().map(RunRecordSource::open).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semester::simulate_semester_with;

    fn test_dir(tag: &str) -> PathBuf {
        // detlint::allow(DL001): test-unique temp path, never simulation input
        std::env::temp_dir().join(format!("opml-spill-test-{}-{tag}", std::process::id()))
    }

    #[test]
    fn more_shards_than_the_fanin_force_an_intermediate_pass() {
        // Labs only, 2 students per shard: 65 shards, one past the fan-in.
        let config = SemesterConfig {
            enrollment: 130,
            shard_students: 2,
            ..SemesterConfig::labs_only()
        };
        assert_eq!(config.shards().len(), 65);
        let spill = SpillConfig::new(test_dir("fanin"));
        let reference = simulate_semester_with(&config, 7, &Telemetry::disabled());
        let mut ledger = Ledger::new();
        let stream =
            simulate_semester_streaming_serial(&config, 7, &Telemetry::disabled(), &spill, |r| {
                ledger.push(r.clone())
            })
            .expect("streaming run");
        assert_eq!(stream.stats.merge_passes, 1, "{:?}", stream.stats);
        assert!(stream.stats.intermediate_runs >= 1);
        assert!(stream.stats.max_open_runs <= FANIN);
        assert_eq!(
            serde_json::to_string(ledger.records()).expect("serialize"),
            serde_json::to_string(reference.ledger.records()).expect("serialize"),
        );
    }

    #[test]
    fn corrupt_run_is_a_typed_error() {
        let dir = test_dir("corrupt");
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("run-0-0.bin");
        // A stale run in the old format (`OPMLRUN1 | aux_len | count`)
        // must fail on its magic, not be misread as a record count.
        let mut stale = b"OPMLRUN1".to_vec();
        binio::put_u64(&mut stale, 0);
        binio::put_u64(&mut stale, 1);
        for contents in [b"NOTARUN!".to_vec(), stale] {
            fs::write(&path, &contents).expect("write");
            let run = RunRef {
                path: path.clone(),
                records: 1,
                bytes: contents.len() as u64,
            };
            match RunRecordSource::open(&run) {
                Err(SpillError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("bad magic"), "{detail}");
                }
                Err(other) => panic!("expected Corrupt, got {other:?}"),
                Ok(_) => panic!("expected Corrupt, got a source"),
            }
        }
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }
}
