//! Durable batch checkpoints — the append-only journal behind
//! `ScenarioRunner::run_resumable`.
//!
//! A million-instance batch that dies at shard 999_990 must not restart from
//! zero. The journal records each completed shard as one
//! [`codec`](crate::codec) frame in an append-only file, so a resumed run
//! can skip everything already done and still produce output
//! **bit-identical** to an uninterrupted run — the journal stores the job's
//! actual outputs and metrics, not a summary of them.
//!
//! ## File format
//!
//! ```text
//! header frame            = frame(JournalHeader { num_shards })
//! record frame (repeated) = frame(ShardRecord { shard, metrics, output })
//! ```
//!
//! where `frame(x)` is [`encode_frame`]'s `magic | version | len | !len |
//! payload | fnv1a64` envelope. Records may repeat a shard (last write wins)
//! and may appear in any order; `ScenarioRunner::run_resumable` writes them
//! in ascending shard order under every strategy. There is no footer: a
//! crash mid-append leaves a strict prefix of its frame, which
//! [`FrameReader`] reports as [`CodecError::Truncated`] at a byte offset; on
//! reopen the journal truncates the file back to that offset (dropping at
//! most the one torn record) and resumes appending. Every other unreadable
//! frame (a checksum mismatch, bad magic, an unknown version, a length word
//! that disagrees with its complement, a malformed payload) is corruption:
//! reopening fails with [`JournalError::Frame`] and leaves the file as it
//! was, so a flipped bit never resurrects as a bogus "completed" shard nor
//! silently drops the intact records after it. A record's extent comes from
//! its checked length word and its payload is checksummed before it is
//! decoded, so a forged length inside a record is refused, never salvaged.
//!
//! ## Durability modes
//!
//! [`DurabilityMode::Sync`] calls `sync_data` after every append — a crash
//! loses at most the record being written. [`DurabilityMode::Deferred`]
//! writes without syncing and syncs once in [`BatchJournal::finish`] — much
//! cheaper per shard. If the OS flushed in order, a crash loses only what
//! it had not flushed: the surviving bytes are a prefix and take the
//! torn-record salvage path. A tail flushed out of order (later bytes on
//! disk, earlier ones not) is not a prefix: it fails its checksum or magic,
//! and reopening refuses it with a typed error, as it does any other
//! corruption.

use crate::codec::{encode_frame, ByteCodec, CodecError, FrameError, FrameReader};
use crate::scenario::ShardMetrics;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

/// How eagerly the journal pushes appended records to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurabilityMode {
    /// `sync_data` after every append: a crash loses at most the record
    /// being written. The safe default for long batches.
    Sync,
    /// Write-behind: records go to the OS immediately but are only synced by
    /// [`BatchJournal::finish`]. A crash re-runs whatever the OS had not
    /// flushed. A tail the OS flushed out of order fails its per-record
    /// checksum, and reopening refuses it with [`JournalError::Frame`].
    Deferred,
}

/// Why a journal could not be opened, read, or appended to.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// A frame was unreadable in a way salvage must not paper over (checksum
    /// mismatch, bad magic, unsupported version, malformed payload). The
    /// offset is absolute within the journal file.
    Frame(FrameError),
    /// The journal on disk was written for a different batch size; resuming
    /// would mis-align shard indices.
    ShardCountMismatch {
        /// `num_shards` recorded in the journal header.
        journal: usize,
        /// `num_shards` of the batch being resumed.
        batch: usize,
    },
    /// A record named a shard outside the header's range — the journal was
    /// corrupted or mixed with another batch's.
    ShardOutOfRange {
        /// The out-of-range shard index found in the record.
        shard: u64,
        /// The batch size from the journal header.
        num_shards: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O failed: {e}"),
            JournalError::Frame(e) => write!(f, "journal unreadable: {e}"),
            JournalError::ShardCountMismatch { journal, batch } => write!(
                f,
                "journal was written for {journal} shard(s) but the batch has {batch}"
            ),
            JournalError::ShardOutOfRange { shard, num_shards } => write!(
                f,
                "journal record names shard {shard}, outside the header's {num_shards} shard(s)"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The journal's first frame: identifies the batch shape so a resume against
/// the wrong input set fails loudly instead of mis-aligning shard indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct JournalHeader {
    num_shards: u64,
}

impl ByteCodec for JournalHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        self.num_shards.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(JournalHeader {
            num_shards: u64::decode(input)?,
        })
    }
}

impl ByteCodec for ShardMetrics {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rounds.encode(out);
        self.total_bits.encode(out);
        self.max_message_bits.encode(out);
        self.ball_sweeps.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ShardMetrics {
            rounds: usize::decode(input)?,
            total_bits: usize::decode(input)?,
            max_message_bits: usize::decode(input)?,
            ball_sweeps: u64::decode(input)?,
        })
    }
}

/// One completed shard as stored in the journal: the shard's index, its
/// metrics, and the job's full output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardRecord<T> {
    /// Index of the shard in the batch's input slice.
    pub shard: u64,
    /// The metrics the job reported for the shard (`None` is representable
    /// but [`BatchJournal::append`] is only called for completed shards).
    pub metrics: Option<ShardMetrics>,
    /// The job's output for the shard.
    pub output: T,
}

impl<T: ByteCodec> ByteCodec for ShardRecord<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.shard.encode(out);
        self.metrics.encode(out);
        self.output.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(ShardRecord {
            shard: u64::decode(input)?,
            metrics: Option::decode(input)?,
            output: T::decode(input)?,
        })
    }
}

/// An append-only file of completed-shard records plus the in-memory
/// completed-shard bitmap recovered from it. See the module docs for the
/// format and crash-recovery contract.
pub struct BatchJournal<T> {
    file: File,
    mode: DurabilityMode,
    completed: Vec<bool>,
    recovered: Vec<Option<ShardRecord<T>>>,
}

impl<T> std::fmt::Debug for BatchJournal<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchJournal")
            .field("mode", &self.mode)
            .field("num_shards", &self.completed.len())
            .field(
                "completed",
                &self.completed.iter().filter(|&&done| done).count(),
            )
            .finish_non_exhaustive()
    }
}

impl<T: ByteCodec> BatchJournal<T> {
    /// Opens the journal at `path`, creating it (with a fresh header) if it
    /// does not exist, and replays every intact record into the
    /// completed-shard bitmap.
    ///
    /// A partial trailing frame — the signature of a crash mid-append — is
    /// truncated away and the journal stays usable; any other unreadable
    /// frame is a typed error and leaves the file untouched. An existing
    /// journal whose header disagrees with `num_shards` fails with
    /// [`JournalError::ShardCountMismatch`].
    pub fn open_or_create(
        path: &Path,
        num_shards: usize,
        mode: DurabilityMode,
    ) -> Result<Self, JournalError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;

        let mut journal = BatchJournal {
            file,
            mode,
            completed: vec![false; num_shards],
            recovered: (0..num_shards).map(|_| None).collect(),
        };

        if bytes.is_empty() {
            let header = encode_frame(&JournalHeader {
                num_shards: num_shards as u64,
            });
            journal.file.write_all(&header)?;
            if mode == DurabilityMode::Sync {
                journal.file.sync_data()?;
            }
            return Ok(journal);
        }

        let mut headers = FrameReader::<JournalHeader>::new(&bytes);
        let header = match headers.next() {
            Some(Ok(header)) => header,
            // A torn header (crash during the very first write) leaves
            // nothing worth keeping: start the journal over.
            None
            | Some(Err(FrameError {
                error: CodecError::Truncated,
                ..
            })) => {
                journal.file.set_len(0)?;
                let frame = encode_frame(&JournalHeader {
                    num_shards: num_shards as u64,
                });
                journal.file.write_all(&frame)?;
                if mode == DurabilityMode::Sync {
                    journal.file.sync_data()?;
                }
                return Ok(journal);
            }
            Some(Err(e)) => return Err(JournalError::Frame(e)),
        };
        if header.num_shards != num_shards as u64 {
            return Err(JournalError::ShardCountMismatch {
                journal: header.num_shards as usize,
                batch: num_shards,
            });
        }
        let records_start = headers.offset();

        let mut reader = FrameReader::<ShardRecord<T>>::new(&bytes[records_start..]);
        let mut salvage: Option<usize> = None;
        for record in reader.by_ref() {
            match record {
                Ok(record) => {
                    if record.shard >= num_shards as u64 {
                        return Err(JournalError::ShardOutOfRange {
                            shard: record.shard,
                            num_shards,
                        });
                    }
                    let shard = record.shard as usize;
                    journal.completed[shard] = true;
                    journal.recovered[shard] = Some(record);
                }
                // A torn tail is a strict prefix of its frame, and decoding
                // reads front to back, so it surfaces as `Truncated`:
                // truncate the file back to the last intact frame. Anything
                // else, a checksum mismatch included, is real corruption —
                // refuse to guess.
                Err(FrameError {
                    offset,
                    error: CodecError::Truncated,
                }) => salvage = Some(records_start + offset),
                Err(FrameError { offset, error }) => {
                    return Err(JournalError::Frame(FrameError {
                        offset: records_start + offset,
                        error,
                    }))
                }
            }
        }
        if let Some(end) = salvage {
            journal.file.set_len(end as u64)?;
            if mode == DurabilityMode::Sync {
                journal.file.sync_data()?;
            }
        }
        Ok(journal)
    }

    /// Number of shards the journal tracks.
    pub fn num_shards(&self) -> usize {
        self.completed.len()
    }

    /// The shards with no record yet, in ascending order — the work a resume
    /// still has to do.
    pub fn pending(&self) -> Vec<usize> {
        (0..self.completed.len())
            .filter(|&shard| !self.completed[shard])
            .collect()
    }

    /// Takes the records recovered at open time, index-aligned with the
    /// batch (`None` for shards without a record). Subsequent calls return
    /// all-`None`.
    pub fn take_recovered(&mut self) -> Vec<Option<ShardRecord<T>>> {
        let empty = (0..self.completed.len()).map(|_| None).collect();
        std::mem::replace(&mut self.recovered, empty)
    }

    /// Appends one completed shard's record, syncing per the journal's
    /// [`DurabilityMode`].
    pub fn append(&mut self, record: &ShardRecord<T>) -> Result<(), JournalError> {
        if record.shard >= self.completed.len() as u64 {
            return Err(JournalError::ShardOutOfRange {
                shard: record.shard,
                num_shards: self.completed.len(),
            });
        }
        let frame = encode_frame(record);
        self.file.write_all(&frame)?;
        if self.mode == DurabilityMode::Sync {
            self.file.sync_data()?;
        }
        self.completed[record.shard as usize] = true;
        Ok(())
    }

    /// Flushes everything to stable storage — the one sync point of
    /// [`DurabilityMode::Deferred`]. Call when the batch finishes.
    pub fn finish(self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A collision-free scratch path (no wall clock: pid + counter).
    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bedom-journal-{}-{}-{}.bin",
            std::process::id(),
            tag,
            n
        ))
    }

    fn record(shard: u64, output: u64) -> ShardRecord<u64> {
        ShardRecord {
            shard,
            metrics: Some(ShardMetrics {
                rounds: shard as usize + 1,
                total_bits: output as usize,
                max_message_bits: 7,
                ball_sweeps: shard,
            }),
            output,
        }
    }

    #[test]
    fn journal_round_trips_records_across_reopen() {
        let path = temp_path("roundtrip");
        for mode in [DurabilityMode::Sync, DurabilityMode::Deferred] {
            let mut journal = BatchJournal::<u64>::open_or_create(&path, 5, mode).unwrap();
            assert_eq!(journal.pending(), vec![0, 1, 2, 3, 4]);
            for shard in [3u64, 0, 4] {
                journal.append(&record(shard, shard * 100)).unwrap();
            }
            assert_eq!(journal.pending(), vec![1, 2]);
            journal.finish().unwrap();

            let mut reopened = BatchJournal::<u64>::open_or_create(&path, 5, mode).unwrap();
            assert_eq!(reopened.pending(), vec![1, 2]);
            let recovered = reopened.take_recovered();
            assert_eq!(recovered[0], Some(record(0, 0)));
            assert_eq!(recovered[3], Some(record(3, 300)));
            assert_eq!(recovered[4], Some(record(4, 400)));
            assert_eq!(recovered[1], None);
            assert!(
                reopened.take_recovered().iter().all(Option::is_none),
                "recovered records are taken exactly once"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn duplicate_records_resolve_last_write_wins() {
        let path = temp_path("lastwins");
        let mut journal =
            BatchJournal::<u64>::open_or_create(&path, 2, DurabilityMode::Deferred).unwrap();
        journal.append(&record(1, 10)).unwrap();
        journal.append(&record(1, 20)).unwrap();
        journal.finish().unwrap();
        let mut reopened =
            BatchJournal::<u64>::open_or_create(&path, 2, DurabilityMode::Deferred).unwrap();
        assert_eq!(reopened.take_recovered()[1], Some(record(1, 20)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_trailing_record_is_truncated_and_the_journal_stays_usable() {
        let path = temp_path("torn");
        let mut journal =
            BatchJournal::<u64>::open_or_create(&path, 4, DurabilityMode::Sync).unwrap();
        journal.append(&record(0, 5)).unwrap();
        journal.append(&record(1, 6)).unwrap();
        drop(journal);

        let intact = std::fs::read(&path).unwrap();
        // Cut the file at every length inside the last record's frame.
        let last_frame = encode_frame(&record(1, 6));
        let keep = intact.len() - last_frame.len();
        for cut in 1..last_frame.len() {
            std::fs::write(&path, &intact[..keep + cut]).unwrap();
            let mut reopened =
                BatchJournal::<u64>::open_or_create(&path, 4, DurabilityMode::Sync).unwrap();
            assert_eq!(reopened.pending(), vec![1, 2, 3], "cut at {cut}");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len() as usize,
                keep,
                "cut at {cut}: the torn tail must be truncated away"
            );
            // The journal keeps working after salvage.
            reopened.append(&record(1, 7)).unwrap();
            let mut again =
                BatchJournal::<u64>::open_or_create(&path, 4, DurabilityMode::Sync).unwrap();
            assert_eq!(again.take_recovered()[1], Some(record(1, 7)));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_header_restarts_the_journal() {
        let path = temp_path("tornheader");
        let journal = BatchJournal::<u64>::open_or_create(&path, 3, DurabilityMode::Sync).unwrap();
        drop(journal);
        let header = std::fs::read(&path).unwrap();
        std::fs::write(&path, &header[..header.len() - 3]).unwrap();
        let journal = BatchJournal::<u64>::open_or_create(&path, 3, DurabilityMode::Sync).unwrap();
        assert_eq!(journal.pending(), vec![0, 1, 2]);
        drop(journal);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            header,
            "the rewritten header matches a fresh journal's"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn shard_count_mismatch_and_out_of_range_are_typed_errors() {
        let path = temp_path("mismatch");
        let mut journal =
            BatchJournal::<u64>::open_or_create(&path, 3, DurabilityMode::Sync).unwrap();
        match journal.append(&record(3, 0)) {
            Err(JournalError::ShardOutOfRange {
                shard: 3,
                num_shards: 3,
            }) => {}
            other => panic!("expected ShardOutOfRange, got {other:?}"),
        }
        drop(journal);
        match BatchJournal::<u64>::open_or_create(&path, 5, DurabilityMode::Sync) {
            Err(JournalError::ShardCountMismatch {
                journal: 3,
                batch: 5,
            }) => {}
            other => panic!("expected ShardCountMismatch, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Writes `bytes` over the 4-shard journal at `path` and asserts that
    /// reopening it fails with `error` at the frame at `offset` and leaves
    /// the file as it was.
    fn assert_refused<T: ByteCodec>(path: &Path, bytes: &[u8], offset: usize, error: CodecError) {
        std::fs::write(path, bytes).unwrap();
        match BatchJournal::<T>::open_or_create(path, 4, DurabilityMode::Sync) {
            Err(JournalError::Frame(e)) => assert_eq!(e, FrameError { offset, error }),
            other => panic!(
                "expected a {error:?} frame error at byte {offset}, got pending {:?}",
                other.map(|journal| journal.pending())
            ),
        }
        assert_eq!(
            std::fs::read(path).unwrap(),
            bytes,
            "a refused journal is left as it was"
        );
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error_not_a_silent_salvage() {
        let path = temp_path("corrupt");
        let mut journal =
            BatchJournal::<u64>::open_or_create(&path, 4, DurabilityMode::Sync).unwrap();
        for shard in 0..3 {
            journal.append(&record(shard, shard + 1)).unwrap();
        }
        drop(journal);
        let intact = std::fs::read(&path).unwrap();
        let header_len = encode_frame(&JournalHeader { num_shards: 4 }).len();
        let record_len = encode_frame(&record(0, 1)).len();
        let second_record = header_len + record_len;
        // (byte, XOR mask, offset of its frame, expected error). A frame is
        // `magic: 4 | version: 2 | len: 4 | !len: 4 | payload | checksum: 8`,
        // so byte 14 of the file is the low byte of the header's
        // `num_shards`, byte 6 of a record is the low byte of its length
        // word, and a record's last payload byte (its output's) sits 9 bytes
        // before its end.
        let cases = [
            (header_len, 0xff, header_len, CodecError::BadMagic),
            (
                second_record + record_len - 9,
                0xff,
                second_record,
                CodecError::Checksum,
            ),
            (14, 0x01, 0, CodecError::Checksum),
            (
                second_record + 6,
                0x10,
                second_record,
                CodecError::Malformed("corrupt length word"),
            ),
        ];
        for (at, mask, frame, expected) in cases {
            let mut bytes = intact.clone();
            bytes[at] ^= mask;
            assert_refused::<u64>(&path, &bytes, frame, expected);
        }
        std::fs::remove_file(&path).unwrap();

        // A forged `Vec` length inside a record: shards 0–2 of four, three
        // ids each, with the high byte of the second record's length set.
        // The payload no longer matches its checksum, so the decode that
        // would have run the length to the end of the file never starts.
        let ids = |shard: u64| ShardRecord {
            shard,
            metrics: None,
            output: vec![3 * shard, 3 * shard + 1, 3 * shard + 2],
        };
        let mut journal = BatchJournal::open_or_create(&path, 4, DurabilityMode::Sync).unwrap();
        for shard in 0..3 {
            journal.append(&ids(shard)).unwrap();
        }
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = encode_frame(&ids(0)).len();
        let second_record = header_len + record_len;
        // A record ends `Vec length: 8 | ids: 24 | checksum: 8`, so the
        // length's high byte sits 33 bytes before its end.
        bytes[second_record + record_len - 33] = 1;
        assert_refused::<Vec<u64>>(&path, &bytes, second_record, CodecError::Checksum);
        std::fs::remove_file(&path).unwrap();
    }
}
