//! Write-ahead journaling of selection/quarantine decisions, and the one
//! record codec of every state file.
//!
//! A checkpoint ([`crate::persist`], format v5) is a full snapshot written
//! atomically — but only when someone calls `save_state` or the service
//! compacts. Everything learned *since* the last checkpoint would die with
//! the process. This module closes that window: the learned-state store
//! of a journaling [`crate::LaunchService`] appends one small checksummed
//! record per change it commits to `<state_path>.journal` as it happens,
//! and recovery replays `checkpoint + journal` to reconstruct the exact
//! pre-crash cache. A checkpoint's payload is itself a compacted journal:
//! the same [`JournalRecord`] frames, read by the same [`read_frames`].
//! The design constraints, in order:
//!
//! * **off the hot path** — a record is a few dozen bytes, appended and
//!   flushed outside every store shard lock; without a configured
//!   state path there is no journal, and a commit that changes an entry
//!   pays one uncontended lock and an `Option` check;
//! * **torn-tail tolerant** — a crash (or `SIGKILL`) mid-append leaves a
//!   partial final record. Each record is length-prefixed and FNV-1a
//!   checksummed, so [`replay`] keeps the valid prefix, flags the tail as
//!   torn, and never panics on file content;
//! * **idempotent replay** — records are applied by the store itself
//!   ([`crate::ShardedCache`]: last selection wins, quarantine always
//!   beats selection, the first quarantine reason is sticky), so
//!   replaying a journal over a checkpoint that already contains some of
//!   its records converges to the same state. A crash between "checkpoint
//!   renamed" and "journal truncated" is therefore safe;
//! * **compactable** — once a checkpoint absorbs the journal (stamping
//!   the cumulative record count as its journal sequence), the journal is
//!   truncated back to its header.

use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dysel_kernel::{fnv1a, VariantId, FNV_OFFSET};

use crate::fault::QuarantineReason;
use crate::persist::{reason_code, reason_from_code, StateError};

/// File magic: identifies a DySel selection journal.
const MAGIC: [u8; 8] = *b"DYSELJL\n";
/// Journal format version.
const VERSION: u32 = 1;
/// Fixed file header: magic + version.
const HEADER_LEN: usize = 8 + 4;
/// Per-record frame: body length + body checksum.
const FRAME_LEN: usize = 4 + 8;
/// Upper bound on a single record body; a length field beyond this is
/// corruption, not a real record.
const MAX_BODY: u32 = 1 << 20;

/// The journal path derived from a checkpoint path: the same file name
/// with `.journal` appended, so the pair travels together.
pub fn journal_path(state_path: &Path) -> PathBuf {
    let mut os = state_path.as_os_str().to_owned();
    os.push(".journal");
    PathBuf::from(os)
}

/// One logged selection/quarantine decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A completed launch selected `variant` for the stream.
    Select {
        /// Owning tenant.
        tenant: u32,
        /// Kernel signature.
        signature: String,
        /// The winner.
        variant: VariantId,
        /// Variant-pool size the selection was made against.
        variants: u32,
    },
    /// A variant was quarantined for the stream.
    Quarantine {
        /// Owning tenant.
        tenant: u32,
        /// Kernel signature.
        signature: String,
        /// The quarantined variant.
        variant: VariantId,
        /// Why.
        reason: QuarantineReason,
    },
    /// The stream's selection was dropped (stale winner).
    Invalidate {
        /// Owning tenant.
        tenant: u32,
        /// Kernel signature.
        signature: String,
    },
}

impl JournalRecord {
    /// Serializes the record body (tag + fields, little-endian,
    /// length-prefixed strings).
    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let put_head = |out: &mut Vec<u8>, tag: u8, tenant: u32, sig: &str| {
            out.push(tag);
            out.extend_from_slice(&tenant.to_le_bytes());
            out.extend_from_slice(&(sig.len() as u32).to_le_bytes());
            out.extend_from_slice(sig.as_bytes());
        };
        match self {
            JournalRecord::Select {
                tenant,
                signature,
                variant,
                variants,
            } => {
                put_head(&mut out, 0, *tenant, signature);
                out.extend_from_slice(&(variant.0 as u32).to_le_bytes());
                out.extend_from_slice(&variants.to_le_bytes());
            }
            JournalRecord::Quarantine {
                tenant,
                signature,
                variant,
                reason,
            } => {
                put_head(&mut out, 1, *tenant, signature);
                out.extend_from_slice(&(variant.0 as u32).to_le_bytes());
                out.push(reason_code(*reason));
            }
            JournalRecord::Invalidate { tenant, signature } => {
                put_head(&mut out, 2, *tenant, signature);
            }
        }
        out
    }

    /// Parses a record body; `None` on any structural problem (the caller
    /// treats it as a torn tail).
    fn decode_body(body: &[u8]) -> Option<JournalRecord> {
        let mut at = 0usize;
        let mut take = |n: usize| {
            let end = at.checked_add(n).filter(|&e| e <= body.len())?;
            let s = &body[at..end];
            at = end;
            Some(s)
        };
        let tag = take(1)?[0];
        let tenant = u32::from_le_bytes(take(4)?.try_into().ok()?);
        let sig_len = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        let signature = String::from_utf8(take(sig_len)?.to_vec()).ok()?;
        let rec = match tag {
            0 => {
                let variant = VariantId(u32::from_le_bytes(take(4)?.try_into().ok()?) as usize);
                let variants = u32::from_le_bytes(take(4)?.try_into().ok()?);
                JournalRecord::Select {
                    tenant,
                    signature,
                    variant,
                    variants,
                }
            }
            1 => {
                let variant = VariantId(u32::from_le_bytes(take(4)?.try_into().ok()?) as usize);
                let reason = reason_from_code(take(1)?[0])?;
                JournalRecord::Quarantine {
                    tenant,
                    signature,
                    variant,
                    reason,
                }
            }
            2 => JournalRecord::Invalidate { tenant, signature },
            _ => return None,
        };
        (at == body.len()).then_some(rec)
    }

    /// Serializes the full framed record: length, checksum, body.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(FRAME_LEN + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&fnv1a(FNV_OFFSET, &body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }
}

/// What [`replay`] recovered from a journal file, or [`read_frames`] from
/// any run of frames.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Replay {
    /// The valid record prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Whether the file ended in a torn/corrupt record (the tail was
    /// dropped; everything in [`Replay::records`] is still good).
    pub torn: bool,
}

/// Replays a journal file. A missing file is an empty replay (nothing was
/// journaled — not an error); an unreadable file or a foreign/unsupported
/// header is a typed [`StateError`]; a torn or corrupt record tail is
/// *tolerated*: the valid prefix is returned with [`Replay::torn`] set.
/// Nothing in here panics on file content.
pub fn replay(path: &Path) -> Result<Replay, StateError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
        Err(e) => {
            return Err(StateError::Io {
                path: path.to_path_buf(),
                detail: e.to_string(),
            })
        }
    };
    if bytes.len() < 8 || bytes[..8] != MAGIC {
        if !bytes.is_empty() && !MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
            return Err(StateError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        // Empty or magic-prefix-only file: a crash during header creation.
        return Ok(Replay {
            records: Vec::new(),
            torn: !bytes.is_empty(),
        });
    }
    if bytes.len() < HEADER_LEN {
        return Ok(Replay {
            records: Vec::new(),
            torn: true,
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(StateError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            supported: VERSION,
        });
    }
    Ok(read_frames(&bytes[HEADER_LEN..]))
}

/// Decodes consecutive framed records: the valid prefix, and whether
/// bytes that do not parse as a frame followed it. The journal tolerates
/// such a tail as torn; a checkpoint rejects it as malformed.
pub(crate) fn read_frames(mut bytes: &[u8]) -> Replay {
    let mut out = Replay::default();
    while !bytes.is_empty() {
        let Some(rec) = read_frame(&mut bytes) else {
            out.torn = true;
            break;
        };
        out.records.push(rec);
    }
    out
}

/// Decodes the frame at the head of `bytes` and advances past it; `None`
/// if the head is not a whole, checksummed, parseable record.
fn read_frame(bytes: &mut &[u8]) -> Option<JournalRecord> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let (checksum, rest) = rest.split_first_chunk::<8>()?;
    let len = u32::from_le_bytes(*len);
    if len > MAX_BODY {
        return None;
    }
    let (body, rest) = rest.split_at_checked(len as usize)?;
    if fnv1a(FNV_OFFSET, body) != u64::from_le_bytes(*checksum) {
        return None;
    }
    let rec = JournalRecord::decode_body(body)?;
    *bytes = rest;
    Some(rec)
}

/// An open journal writer. Appends are flushed (not fsynced: surviving
/// process death is the goal; surviving power loss is the checkpoint's
/// job) so a `SIGKILL`ed process loses at most the record being written —
/// which replay then drops as a torn tail.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: fs::File,
    /// Records appended since the last compaction.
    appended: u64,
    /// Cumulative record count across compactions: what a checkpoint
    /// stamps as its journal sequence.
    seq: u64,
    /// Chaos kill-point: when `false`, appends are silently dropped,
    /// simulating a persistence-layer crash mid-run.
    alive: bool,
}

impl Journal {
    /// Creates (truncating) the journal at `path` and writes its header.
    /// `seq` seeds the cumulative record counter — pass the checkpoint's
    /// journal sequence plus any records just replayed.
    pub fn create(path: &Path, seq: u64) -> Result<Journal, StateError> {
        let io_err = |e: std::io::Error| StateError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        };
        let mut file = fs::File::create(path).map_err(io_err)?;
        file.write_all(&MAGIC).map_err(io_err)?;
        file.write_all(&VERSION.to_le_bytes()).map_err(io_err)?;
        file.flush().map_err(io_err)?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            appended: 0,
            seq,
            alive: true,
        })
    }

    /// Appends one record and flushes it to the OS. Returns whether the
    /// record was written (`false` after [`Journal::kill`]).
    pub fn append(&mut self, rec: &JournalRecord) -> Result<bool, StateError> {
        if !self.alive {
            return Ok(false);
        }
        let io_err = |path: &Path, e: std::io::Error| StateError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        };
        self.file
            .write_all(&rec.encode())
            .and_then(|()| self.file.flush())
            .map_err(|e| io_err(&self.path, e))?;
        self.appended += 1;
        self.seq += 1;
        Ok(true)
    }

    /// Records appended since the last [`Journal::compacted`].
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Cumulative record count (survives compactions).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Truncates the journal back to its header after a checkpoint
    /// absorbed it. The cumulative sequence keeps counting.
    pub fn compacted(&mut self) -> Result<(), StateError> {
        if !self.alive {
            return Ok(());
        }
        let io_err = |path: &Path, e: std::io::Error| StateError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        };
        // Rewind the cursor too: `set_len` alone leaves it past the new
        // end, and a later append would write across a zero-filled hole.
        self.file
            .set_len(HEADER_LEN as u64)
            .and_then(|()| self.file.seek(SeekFrom::Start(HEADER_LEN as u64)))
            .map_err(|e| io_err(&self.path, e))?;
        self.appended = 0;
        Ok(())
    }

    /// Chaos kill-point: stop persisting (appends become no-ops), as if
    /// the process had died at this point in the journal. Deterministic
    /// chaos schedules use this to prove recovery equals the journaled
    /// prefix.
    pub fn kill(&mut self) {
        self.alive = false;
    }

    /// Whether the journal is still persisting (not chaos-killed).
    pub fn is_alive(&self) -> bool {
        self.alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedCache;

    fn dir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dysel-journal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Select {
                tenant: 0,
                signature: "spmv".into(),
                variant: VariantId(1),
                variants: 3,
            },
            JournalRecord::Quarantine {
                tenant: 2,
                signature: "sgemm".into(),
                variant: VariantId(0),
                reason: QuarantineReason::WrongOutput,
            },
            JournalRecord::Select {
                tenant: 2,
                signature: "sgemm".into(),
                variant: VariantId(1),
                variants: 2,
            },
            JournalRecord::Invalidate {
                tenant: 0,
                signature: "spmv".into(),
            },
        ]
    }

    #[test]
    fn append_replay_round_trip() {
        let path = dir().join("rt.journal");
        let mut j = Journal::create(&path, 5).unwrap();
        for rec in sample_records() {
            assert!(j.append(&rec).unwrap());
        }
        assert_eq!(j.appended(), 4);
        assert_eq!(j.seq(), 9);
        let back = replay(&path).unwrap();
        assert!(!back.torn);
        assert_eq!(back.records, sample_records());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let path = dir().join("torn.journal");
        let mut j = Journal::create(&path, 0).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let full = fs::read(&path).unwrap();
        // Cut anywhere strictly inside the last record: the first three
        // records must survive, the tail must be flagged torn.
        let third = replay(&path).unwrap();
        assert_eq!(third.records.len(), 4);
        for cut in [full.len() - 1, full.len() - 5, full.len() - 10] {
            fs::write(&path, &full[..cut]).unwrap();
            let back = replay(&path).unwrap();
            assert!(back.torn, "cut at {cut} not flagged torn");
            assert_eq!(back.records, sample_records()[..3].to_vec());
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupt_record_stops_replay_without_panic() {
        let path = dir().join("corrupt.journal");
        let mut j = Journal::create(&path, 0).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a bit inside the second record's body.
        let second_at = HEADER_LEN + FRAME_LEN + sample_records()[0].encode_body().len();
        let target = second_at + FRAME_LEN + 2;
        bytes[target] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let back = replay(&path).unwrap();
        assert!(back.torn);
        assert_eq!(back.records, sample_records()[..1].to_vec());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_empty_replay() {
        let back = replay(Path::new("/nonexistent/dysel/x.journal")).unwrap();
        assert_eq!(back, Replay::default());
    }

    #[test]
    fn foreign_and_future_headers_are_typed() {
        let path = dir().join("foreign.journal");
        fs::write(&path, b"garbage-bytes-here").unwrap();
        assert!(matches!(
            replay(&path).unwrap_err(),
            StateError::BadMagic { .. }
        ));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&9u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            replay(&path).unwrap_err(),
            StateError::UnsupportedVersion { found: 9, .. }
        ));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn replay_matches_cache_semantics() {
        let store = ShardedCache::new(2);
        store.replay(&sample_records());
        let state = store.export();
        // Tenant 0: spmv selected then invalidated.
        assert!(state.selections.is_empty());
        // Tenant 2: sgemm v0 quarantined, v1 selected.
        let t2 = &state.tenants[&2];
        assert_eq!(t2.selections["sgemm"], VariantId(1));
        assert_eq!(
            t2.quarantine["sgemm"],
            vec![(VariantId(0), QuarantineReason::WrongOutput)]
        );
        // Selecting a quarantined variant is refused; quarantining the
        // current winner drops it. Double-apply is a no-op.
        let select_bad = JournalRecord::Select {
            tenant: 2,
            signature: "sgemm".into(),
            variant: VariantId(0),
            variants: 2,
        };
        store.replay(&[select_bad]);
        assert_eq!(store.export().tenants[&2].selections["sgemm"], VariantId(1));
        let quarantine_winner = JournalRecord::Quarantine {
            tenant: 2,
            signature: "sgemm".into(),
            variant: VariantId(1),
            reason: QuarantineReason::LaunchFailed,
        };
        store.replay(&[quarantine_winner.clone(), quarantine_winner]);
        let state = store.export();
        let t2 = &state.tenants[&2];
        assert!(!t2.selections.contains_key("sgemm"));
        assert_eq!(t2.quarantine["sgemm"].len(), 2);
    }

    #[test]
    fn compaction_truncates_but_keeps_counting() {
        let path = dir().join("compact.journal");
        let mut j = Journal::create(&path, 0).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        j.compacted().unwrap();
        assert_eq!(j.appended(), 0);
        assert_eq!(j.seq(), 4);
        assert!(replay(&path).unwrap().records.is_empty());
        // Appends after compaction land cleanly.
        j.append(&sample_records()[0]).unwrap();
        assert_eq!(j.seq(), 5);
        assert_eq!(replay(&path).unwrap().records.len(), 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn killed_journal_drops_appends_silently() {
        let path = dir().join("killed.journal");
        let mut j = Journal::create(&path, 0).unwrap();
        j.append(&sample_records()[0]).unwrap();
        j.kill();
        assert!(!j.is_alive());
        assert!(!j.append(&sample_records()[1]).unwrap());
        assert_eq!(replay(&path).unwrap().records.len(), 1);
        let _ = fs::remove_file(&path);
    }
}
