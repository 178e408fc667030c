//! Crash-safe persistence of what the degradation ladder learns.
//!
//! Production kernel-selection runtimes amortize profiling cost over
//! process lifetimes: what micro-profiling and the quarantine machinery
//! discover in one run should survive to the next, so iterative
//! applications restart warm and skip straight to the cached winner. This
//! module stores a checkpoint of the learned-state store
//! ([`crate::ShardedCache`]) in a small self-validating file:
//!
//! * **versioned** — an 8-byte magic plus a format version, so future
//!   layouts are detected instead of misparsed;
//! * **checksummed** — a 64-bit FNV-1a over the payload plus an explicit
//!   payload length, so truncation and bit rot are told apart and both are
//!   rejected with a typed [`StateError`];
//! * **atomically written** — serialized to a sibling temp file, synced,
//!   renamed over the destination, and the directory synced, so a crash
//!   mid-save leaves either the old state or the new state, never a torn
//!   file, and a rename survives power loss before the journal it absorbed
//!   is truncated.
//!
//! The payload is a compacted journal: the journal sequence the checkpoint
//! absorbed, then, stream by stream in key order, the records that rebuild
//! the stream's entry from nothing, each framed exactly as the write-ahead
//! journal frames it ([`crate::journal`]). One frame reader decodes both
//! files, and loading is replay through the store, so the store's rules
//! are the only apply rules. Inside a checkpoint every frame must parse;
//! in the journal a frame that does not is a tolerated torn tail.
//!
//! Loading is corruption-tolerant by contract: every malformed input maps
//! to a [`StateError`] and the runtime cold-starts; nothing here panics on
//! file content. Saving the same store twice produces bit-identical files —
//! the same determinism contract the rest of the system honors.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use dysel_kernel::{fnv1a, write_atomic, VariantId, FNV_OFFSET};

use crate::fault::QuarantineReason;
use crate::journal::{self, JournalRecord};

/// File magic: identifies a DySel state file regardless of extension.
const MAGIC: [u8; 8] = *b"DYSELST\n";
/// Current format version. v5 made the payload a compacted journal; v1
/// through v4 laid out nested per-signature maps. Older files cold-start
/// with a typed [`StateError::UnsupportedVersion`], never a panic.
const VERSION: u32 = 5;
/// Fixed header: magic, version, payload length, payload checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// One tenant's learned state inside a multi-tenant state file: the same
/// three per-signature maps a plain runtime persists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantState {
    /// Selected winner per kernel signature.
    pub selections: BTreeMap<String, VariantId>,
    /// Quarantined variants per kernel signature, in quarantine order.
    pub quarantine: BTreeMap<String, Vec<(VariantId, QuarantineReason)>>,
    /// Number of registered variants per selected signature at save time
    /// (zero when unknown).
    pub variant_counts: BTreeMap<String, u32>,
}

impl TenantState {
    /// True when there is nothing to persist for this tenant.
    pub fn is_empty(&self) -> bool {
        self.selections.is_empty() && self.quarantine.is_empty() && self.variant_counts.is_empty()
    }
}

/// The persisted slice of a runtime's learned state as a value — what
/// `export_state` and `load_state` return: per-signature selections and
/// quarantine entries. The three flat maps are tenant 0's state (every
/// single-tenant runtime reads and writes only those); a multi-tenant
/// [`crate::LaunchService`] additionally nests the state of every other
/// tenant under [`RuntimeState::tenants`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeState {
    /// Selected winner per kernel signature (tenant 0).
    pub selections: BTreeMap<String, VariantId>,
    /// Quarantined variants per kernel signature, in quarantine order
    /// (tenant 0).
    pub quarantine: BTreeMap<String, Vec<(VariantId, QuarantineReason)>>,
    /// Number of registered variants per selected signature at save time
    /// (zero when unknown). A warm restore whose signature re-registers
    /// with a different variant count is stale: the persisted winner was
    /// chosen against a different candidate set. (Tenant 0.)
    pub variant_counts: BTreeMap<String, u32>,
    /// Per-tenant state for tenants other than 0. Tenant 0 stays in the
    /// flat maps, and an export never carries an empty entry here.
    pub tenants: BTreeMap<u32, TenantState>,
    /// Cumulative count of write-ahead-journal records folded into this
    /// checkpoint (see [`crate::journal_path`]). Zero for plain runtimes,
    /// which never journal — the field is bookkeeping, not learned state,
    /// so [`RuntimeState::is_empty`] ignores it.
    pub journal_seq: u64,
}

/// One tenant's three per-signature maps, borrowed mutably from a
/// [`RuntimeState`].
pub(crate) type SectionsMut<'a> = (
    &'a mut BTreeMap<String, VariantId>,
    &'a mut BTreeMap<String, Vec<(VariantId, QuarantineReason)>>,
    &'a mut BTreeMap<String, u32>,
);

impl RuntimeState {
    /// True when there is nothing to persist. [`RuntimeState::journal_seq`]
    /// is bookkeeping, not learned state, and is ignored here.
    pub fn is_empty(&self) -> bool {
        self.selections.is_empty()
            && self.quarantine.is_empty()
            && self.variant_counts.is_empty()
            && self.tenants.values().all(TenantState::is_empty)
    }

    /// The tenant's maps: the flat ones for tenant 0, its nested section
    /// (created on demand) otherwise.
    pub(crate) fn sections_mut(&mut self, tenant: u32) -> SectionsMut<'_> {
        if tenant == 0 {
            return (
                &mut self.selections,
                &mut self.quarantine,
                &mut self.variant_counts,
            );
        }
        let ts = self.tenants.entry(tenant).or_default();
        (
            &mut ts.selections,
            &mut ts.quarantine,
            &mut ts.variant_counts,
        )
    }
}

/// Why a state file could not be loaded (or saved). Every variant is a
/// *typed* rejection: the runtime cold-starts instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The filesystem failed (permission, missing directory, ...). The
    /// underlying error is carried as text so the type stays comparable.
    Io {
        /// File involved.
        path: PathBuf,
        /// Stringified `std::io::Error`.
        detail: String,
    },
    /// The file does not start with the DySel state magic.
    BadMagic {
        /// File involved.
        path: PathBuf,
    },
    /// The file is a DySel state file of a format this build cannot read.
    UnsupportedVersion {
        /// File involved.
        path: PathBuf,
        /// Version stamped in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The file is shorter (or longer) than its header promises.
    Truncated {
        /// File involved.
        path: PathBuf,
    },
    /// The payload bytes do not hash to the stored checksum.
    ChecksumMismatch {
        /// File involved.
        path: PathBuf,
    },
    /// The payload passed the checksum but does not parse — an encoder
    /// bug or a deliberate forgery; rejected either way.
    Malformed {
        /// File involved.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
    /// A state operation was requested on a runtime configured without a
    /// [`crate::RuntimeConfig::state_path`].
    NoStatePath,
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Io { path, detail } => {
                write!(f, "state file {}: {detail}", path.display())
            }
            StateError::BadMagic { path } => {
                write!(f, "state file {}: not a DySel state file", path.display())
            }
            StateError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "state file {}: format version {found} (this build reads v{supported})",
                path.display()
            ),
            StateError::Truncated { path } => {
                write!(f, "state file {}: truncated", path.display())
            }
            StateError::ChecksumMismatch { path } => {
                write!(f, "state file {}: checksum mismatch", path.display())
            }
            StateError::Malformed { path, detail } => {
                write!(f, "state file {}: malformed ({detail})", path.display())
            }
            StateError::NoStatePath => {
                f.write_str("no state path configured (RuntimeConfig::state_path is None)")
            }
        }
    }
}

impl std::error::Error for StateError {}

pub(crate) fn reason_code(r: QuarantineReason) -> u8 {
    match r {
        QuarantineReason::LaunchFailed => 0,
        QuarantineReason::DeadlineExceeded => 1,
        QuarantineReason::WrongOutput => 2,
        QuarantineReason::MetadataMismatch => 3,
    }
}

pub(crate) fn reason_from_code(c: u8) -> Option<QuarantineReason> {
    match c {
        0 => Some(QuarantineReason::LaunchFailed),
        1 => Some(QuarantineReason::DeadlineExceeded),
        2 => Some(QuarantineReason::WrongOutput),
        3 => Some(QuarantineReason::MetadataMismatch),
        _ => None,
    }
}

/// Serializes a checkpoint to the full on-disk byte image: the header,
/// then a payload of `seq` and the journal-framed `records`.
pub(crate) fn encode(seq: u64, records: &[JournalRecord]) -> Vec<u8> {
    let mut payload = seq.to_le_bytes().to_vec();
    for rec in records {
        payload.extend_from_slice(&rec.encode());
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses a full on-disk byte image back into its journal sequence and
/// records.
pub(crate) fn decode(bytes: &[u8], path: &Path) -> Result<(u64, Vec<JournalRecord>), StateError> {
    if bytes.len() < 8 || bytes[..8] != MAGIC {
        // Too short to even hold the magic counts as truncated only when
        // the prefix matches; otherwise it is simply not our file.
        if bytes.len() >= 8 || !MAGIC.starts_with(bytes) {
            return Err(StateError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        return Err(StateError::Truncated {
            path: path.to_path_buf(),
        });
    }
    if bytes.len() < HEADER_LEN {
        return Err(StateError::Truncated {
            path: path.to_path_buf(),
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
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(StateError::Truncated {
            path: path.to_path_buf(),
        });
    }
    if fnv1a(FNV_OFFSET, payload) != checksum {
        return Err(StateError::ChecksumMismatch {
            path: path.to_path_buf(),
        });
    }
    // The payload passed its checksum, so a frame that does not parse is
    // an encoder bug or a forgery — malformed, never a torn tail.
    let malformed = |detail: &str| StateError::Malformed {
        path: path.to_path_buf(),
        detail: detail.to_owned(),
    };
    let (seq, frames) = payload
        .split_first_chunk::<8>()
        .ok_or_else(|| malformed("payload shorter than its journal sequence"))?;
    let replay = journal::read_frames(frames);
    if replay.torn {
        return Err(malformed("record frame does not parse"));
    }
    Ok((u64::from_le_bytes(*seq), replay.records))
}

/// Loads a state file: its journal sequence and records. Every failure
/// mode — missing file, wrong magic, version skew, truncation, corruption
/// — surfaces as a [`StateError`].
pub(crate) fn load(path: &Path) -> Result<(u64, Vec<JournalRecord>), StateError> {
    let bytes = fs::read(path).map_err(|e| StateError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    decode(&bytes, path)
}

/// Atomically and durably writes a state file (see
/// [`dysel_kernel::write_atomic`]): a crash at any point leaves either the
/// previous file or the new one intact.
pub(crate) fn save(seq: u64, records: &[JournalRecord], path: &Path) -> Result<(), StateError> {
    write_atomic(path, &encode(seq, records)).map_err(|(path, e)| StateError::Io {
        path,
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A checkpoint as the store writes one: per stream in key order, the
    /// selection, then its quarantines.
    fn sample() -> (u64, Vec<JournalRecord>) {
        let select = |tenant, sig: &str, v, variants| JournalRecord::Select {
            tenant,
            signature: sig.to_owned(),
            variant: VariantId(v),
            variants,
        };
        let quarantine = |tenant, sig: &str, v, reason| JournalRecord::Quarantine {
            tenant,
            signature: sig.to_owned(),
            variant: VariantId(v),
            reason,
        };
        let records = vec![
            select(0, "sgemm", 0, 2),
            select(0, "spmv", 2, 4),
            quarantine(0, "spmv", 1, QuarantineReason::DeadlineExceeded),
            quarantine(0, "spmv", 3, QuarantineReason::WrongOutput),
            select(7, "spmv", 1, 4),
            quarantine(7, "spmv", 0, QuarantineReason::LaunchFailed),
        ];
        (42, records)
    }

    fn sample_image() -> Vec<u8> {
        let (seq, records) = sample();
        encode(seq, &records)
    }

    /// Re-stamps the header's payload length and checksum after a test
    /// edited the payload.
    fn reseal(image: &mut [u8]) {
        let len = (image.len() - HEADER_LEN) as u64;
        let sum = fnv1a(FNV_OFFSET, &image[HEADER_LEN..]);
        image[12..20].copy_from_slice(&len.to_le_bytes());
        image[20..28].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn encode_decode_round_trip() {
        let image = sample_image();
        let back = decode(&image, Path::new("x")).unwrap();
        assert_eq!(back, sample());
        // Deterministic bytes: encoding the decoded state is identical.
        assert_eq!(encode(back.0, &back.1), image);
    }

    #[test]
    fn empty_state_round_trips() {
        let back = decode(&encode(0, &[]), Path::new("x")).unwrap();
        assert_eq!(back, (0, Vec::new()));
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = decode(b"garbage-bytes-here", Path::new("x")).unwrap_err();
        assert!(matches!(err, StateError::BadMagic { .. }));
    }

    #[test]
    fn truncation_is_typed() {
        let image = sample_image();
        for cut in 0..image.len() {
            let err = decode(&image[..cut], Path::new("x")).unwrap_err();
            assert!(
                matches!(err, StateError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_checksum_mismatch() {
        let image = sample_image();
        for at in 0..image.len() {
            let mut flipped = image.clone();
            flipped[at] ^= 0x01;
            let err = decode(&flipped, Path::new("x")).unwrap_err();
            let typed = match at {
                0..8 => matches!(err, StateError::BadMagic { .. }),
                8..12 => matches!(err, StateError::UnsupportedVersion { .. }),
                12..20 => matches!(err, StateError::Truncated { .. }),
                _ => matches!(err, StateError::ChecksumMismatch { .. }),
            };
            assert!(typed, "byte {at}: {err}");
        }
    }

    #[test]
    fn unparseable_record_frame_is_malformed() {
        let (seq, records) = sample();
        // A frame cut short, a checksummed frame whose body is no record,
        // and a payload too short for the journal sequence: each inside a
        // correctly checksummed payload.
        let mut torn = encode(seq, &records);
        torn.truncate(torn.len() - 1);
        let mut not_a_record = encode(seq, &records);
        not_a_record.extend_from_slice(&1u32.to_le_bytes());
        not_a_record.extend_from_slice(&fnv1a(FNV_OFFSET, &[9]).to_le_bytes());
        not_a_record.push(9);
        let mut no_seq = encode(seq, &[]);
        no_seq.truncate(HEADER_LEN + 7);
        for mut image in [torn, not_a_record, no_seq] {
            reseal(&mut image);
            let err = decode(&image, Path::new("x")).unwrap_err();
            assert!(matches!(err, StateError::Malformed { .. }), "{err}");
        }
    }

    #[test]
    fn other_version_is_typed() {
        // v1-v4 are real historical formats; every one must cold-start
        // with a typed error, never a panic. v6 is the future.
        for found in [1u32, 2, 3, 4, 6] {
            let mut image = sample_image();
            image[8..12].copy_from_slice(&found.to_le_bytes());
            let err = decode(&image, Path::new("x")).unwrap_err();
            assert_eq!(
                err,
                StateError::UnsupportedVersion {
                    path: PathBuf::from("x"),
                    found,
                    supported: VERSION,
                }
            );
        }
    }

    #[test]
    fn reason_codes_round_trip() {
        for r in [
            QuarantineReason::LaunchFailed,
            QuarantineReason::DeadlineExceeded,
            QuarantineReason::WrongOutput,
            QuarantineReason::MetadataMismatch,
        ] {
            assert_eq!(reason_from_code(reason_code(r)), Some(r));
        }
        assert_eq!(reason_from_code(4), None);
    }

    #[test]
    fn save_and_load_via_disk() {
        let dir = std::env::temp_dir().join(format!("dysel-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        let (seq, records) = sample();
        save(seq, &records, &path).unwrap();
        assert_eq!(load(&path).unwrap(), sample());
        // Overwrite is atomic and idempotent.
        save(seq, &records, &path).unwrap();
        assert_eq!(load(&path).unwrap(), sample());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/dysel/state.bin")).unwrap_err();
        assert!(matches!(err, StateError::Io { .. }));
    }
}
