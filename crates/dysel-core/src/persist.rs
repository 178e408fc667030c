//! Crash-safe persistence of what the degradation ladder learns.
//!
//! Production kernel-selection runtimes amortize profiling cost over
//! process lifetimes: what micro-profiling and the quarantine machinery
//! discover in one run should survive to the next, so iterative
//! applications restart warm and skip straight to the cached winner. This
//! module stores the per-signature selection cache and quarantine set in a
//! small self-validating file:
//!
//! * **versioned** — an 8-byte magic plus a format version, so future
//!   layouts are detected instead of misparsed;
//! * **checksummed** — a 64-bit FNV-1a over the payload plus an explicit
//!   payload length, so truncation and bit rot are told apart and both are
//!   rejected with a typed [`StateError`];
//! * **atomically written** — serialized to a sibling temp file, synced,
//!   then renamed over the destination, so a crash mid-save leaves either
//!   the old state or the new state, never a torn file.
//!
//! Loading is corruption-tolerant by contract: every malformed input maps
//! to a [`StateError`] and the runtime cold-starts; nothing here panics on
//! file content.
//!
//! The encoding is fixed little-endian with length-prefixed UTF-8 strings
//! and [`BTreeMap`]-ordered entries, so saving the same state twice
//! produces bit-identical files — the same determinism contract the rest
//! of the system honors.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use dysel_kernel::VariantId;

use crate::fault::QuarantineReason;

/// File magic: identifies a DySel state file regardless of extension.
const MAGIC: [u8; 8] = *b"DYSELST\n";
/// Current format version. v2 added the per-signature variant counts used
/// to detect stale warm restores; v3 added the per-tenant section a
/// multi-tenant [`crate::LaunchService`] persists; v4 added the trailing
/// journal sequence number a journaling service stamps at checkpoint time
/// (see [`crate::journal`]). Older files — v1 through v3 included —
/// cold-start with a typed [`StateError::UnsupportedVersion`], never a
/// panic.
const VERSION: u32 = 4;
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

/// The persisted slice of a runtime's learned state: per-signature
/// selections and quarantine entries. The three flat maps are tenant 0's
/// state (every single-tenant runtime reads and writes only those); a
/// multi-tenant [`crate::LaunchService`] additionally nests the state of
/// every other tenant under [`RuntimeState::tenants`].
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
    /// Per-tenant state for tenants other than 0 (v3). Tenant 0 must stay
    /// in the flat maps; encoding rejects nothing, but a well-formed file
    /// never carries an empty or zero-keyed entry here.
    pub tenants: BTreeMap<u32, TenantState>,
    /// Cumulative count of write-ahead-journal records folded into this
    /// checkpoint (v4; see [`crate::journal`]). Zero for plain runtimes,
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

/// 64-bit FNV-1a over a byte slice (the journal checksums records with
/// it too).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends one tenant's three per-signature sections to the payload.
fn put_sections(
    payload: &mut Vec<u8>,
    selections: &BTreeMap<String, VariantId>,
    quarantine: &BTreeMap<String, Vec<(VariantId, QuarantineReason)>>,
    variant_counts: &BTreeMap<String, u32>,
) {
    put_u32(payload, selections.len() as u32);
    for (sig, id) in selections {
        put_str(payload, sig);
        put_u32(payload, id.0 as u32);
    }
    put_u32(payload, quarantine.len() as u32);
    for (sig, entries) in quarantine {
        put_str(payload, sig);
        put_u32(payload, entries.len() as u32);
        for (id, reason) in entries {
            put_u32(payload, id.0 as u32);
            payload.push(reason_code(*reason));
        }
    }
    put_u32(payload, variant_counts.len() as u32);
    for (sig, count) in variant_counts {
        put_str(payload, sig);
        put_u32(payload, *count);
    }
}

/// Serializes a state to the full on-disk byte image (header + payload).
pub fn encode(state: &RuntimeState) -> Vec<u8> {
    let mut payload = Vec::new();
    put_sections(
        &mut payload,
        &state.selections,
        &state.quarantine,
        &state.variant_counts,
    );
    put_u32(&mut payload, state.tenants.len() as u32);
    for (tenant, ts) in &state.tenants {
        put_u32(&mut payload, *tenant);
        put_sections(
            &mut payload,
            &ts.selections,
            &ts.quarantine,
            &ts.variant_counts,
        );
    }
    payload.extend_from_slice(&state.journal_seq.to_le_bytes());
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// A bounds-checked little-endian reader over the payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    path: &'a Path,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        // The payload length was already validated against the header, so
        // running off the end here means the *content* lies about its own
        // structure — malformed, not truncated.
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(StateError::Malformed {
                path: self.path.to_path_buf(),
                detail: "length field exceeds payload".to_owned(),
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, StateError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    fn string(&mut self) -> Result<String, StateError> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| StateError::Malformed {
            path: self.path.to_path_buf(),
            detail: "signature is not UTF-8".to_owned(),
        })
    }
}

/// Parses a full on-disk byte image back into a state.
pub fn decode(bytes: &[u8], path: &Path) -> Result<RuntimeState, StateError> {
    let malformed = |detail: &str| StateError::Malformed {
        path: path.to_path_buf(),
        detail: detail.to_owned(),
    };
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
    if fnv1a(payload) != checksum {
        return Err(StateError::ChecksumMismatch {
            path: path.to_path_buf(),
        });
    }
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
        path,
    };
    let mut state = RuntimeState::default();
    let t0 = read_sections(&mut cur)?;
    state.selections = t0.selections;
    state.quarantine = t0.quarantine;
    state.variant_counts = t0.variant_counts;
    let n_tenants = cur.u32()?;
    for _ in 0..n_tenants {
        let tenant = cur.u32()?;
        if tenant == 0 {
            return Err(malformed("tenant 0 nested in the tenant section"));
        }
        let ts = read_sections(&mut cur)?;
        if state.tenants.insert(tenant, ts).is_some() {
            return Err(malformed("duplicate tenant id"));
        }
    }
    let seq = cur.take(8)?;
    state.journal_seq = u64::from_le_bytes(seq.try_into().expect("8 bytes"));
    if cur.at != payload.len() {
        return Err(malformed("trailing bytes after payload"));
    }
    Ok(state)
}

/// Parses one tenant's three per-signature sections.
fn read_sections(cur: &mut Cursor<'_>) -> Result<TenantState, StateError> {
    let malformed = |cur: &Cursor<'_>, detail: &str| StateError::Malformed {
        path: cur.path.to_path_buf(),
        detail: detail.to_owned(),
    };
    let mut ts = TenantState::default();
    let n_sel = cur.u32()?;
    for _ in 0..n_sel {
        let sig = cur.string()?;
        let id = VariantId(cur.u32()? as usize);
        if ts.selections.insert(sig, id).is_some() {
            return Err(malformed(cur, "duplicate selection signature"));
        }
    }
    let n_quar = cur.u32()?;
    for _ in 0..n_quar {
        let sig = cur.string()?;
        let n = cur.u32()?;
        let mut entries = Vec::with_capacity(n.min(1024) as usize);
        for _ in 0..n {
            let id = VariantId(cur.u32()? as usize);
            let reason = reason_from_code(cur.u8()?)
                .ok_or_else(|| malformed(cur, "unknown quarantine reason code"))?;
            entries.push((id, reason));
        }
        if ts.quarantine.insert(sig, entries).is_some() {
            return Err(malformed(cur, "duplicate quarantine signature"));
        }
    }
    let n_counts = cur.u32()?;
    for _ in 0..n_counts {
        let sig = cur.string()?;
        let count = cur.u32()?;
        if ts.variant_counts.insert(sig, count).is_some() {
            return Err(malformed(cur, "duplicate variant-count signature"));
        }
    }
    Ok(ts)
}

/// Loads a state file. Every failure mode — missing file, wrong magic,
/// version skew, truncation, corruption — surfaces as a [`StateError`].
pub fn load(path: &Path) -> Result<RuntimeState, StateError> {
    let bytes = fs::read(path).map_err(|e| StateError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    decode(&bytes, path)
}

/// Atomically writes a state file: the image goes to a sibling temp file,
/// is synced to disk, and is renamed over `path`. A crash at any point
/// leaves either the previous file or the new one intact.
pub fn save(state: &RuntimeState, path: &Path) -> Result<(), StateError> {
    let io_err = |p: &Path, e: std::io::Error| StateError::Io {
        path: p.to_path_buf(),
        detail: e.to_string(),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let image = encode(state);
    let write = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&image)?;
        f.sync_all()
    })();
    if let Err(e) = write {
        let _ = fs::remove_file(&tmp);
        return Err(io_err(&tmp, e));
    }
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        io_err(path, e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RuntimeState {
        let mut s = RuntimeState::default();
        s.selections.insert("spmv".to_owned(), VariantId(2));
        s.selections.insert("sgemm".to_owned(), VariantId(0));
        s.quarantine.insert(
            "spmv".to_owned(),
            vec![
                (VariantId(1), QuarantineReason::DeadlineExceeded),
                (VariantId(3), QuarantineReason::WrongOutput),
            ],
        );
        s.variant_counts.insert("spmv".to_owned(), 4);
        s.variant_counts.insert("sgemm".to_owned(), 2);
        let mut t7 = TenantState::default();
        t7.selections.insert("spmv".to_owned(), VariantId(1));
        t7.quarantine.insert(
            "spmv".to_owned(),
            vec![(VariantId(0), QuarantineReason::LaunchFailed)],
        );
        t7.variant_counts.insert("spmv".to_owned(), 4);
        s.tenants.insert(7, t7);
        s.journal_seq = 42;
        s
    }

    #[test]
    fn encode_decode_round_trip() {
        let s = sample();
        let image = encode(&s);
        let back = decode(&image, Path::new("x")).unwrap();
        assert_eq!(back, s);
        // Deterministic bytes: encoding the decoded state is identical.
        assert_eq!(encode(&back), image);
    }

    #[test]
    fn empty_state_round_trips() {
        let s = RuntimeState::default();
        assert!(s.is_empty());
        let back = decode(&encode(&s), Path::new("x")).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = decode(b"garbage-bytes-here", Path::new("x")).unwrap_err();
        assert!(matches!(err, StateError::BadMagic { .. }));
    }

    #[test]
    fn truncation_is_typed() {
        let image = encode(&sample());
        for cut in [3, HEADER_LEN - 1, image.len() - 1] {
            let err = decode(&image[..cut], Path::new("x")).unwrap_err();
            assert!(
                matches!(err, StateError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn flipped_payload_byte_is_checksum_mismatch() {
        let mut image = encode(&sample());
        let last = image.len() - 1;
        image[last] ^= 0x01;
        let err = decode(&image, Path::new("x")).unwrap_err();
        assert!(matches!(err, StateError::ChecksumMismatch { .. }));
    }

    #[test]
    fn nested_tenant_zero_is_malformed() {
        let mut s = RuntimeState::default();
        s.tenants.insert(1, TenantState::default());
        let mut image = encode(&s);
        // Rewrite the tenant id (the payload tail is: id + three empty
        // section counts + the 8-byte journal seq) from 1 to 0 and
        // re-stamp the checksum.
        let at = image.len() - 24;
        image[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        let sum = fnv1a(&image[HEADER_LEN..]);
        image[20..28].copy_from_slice(&sum.to_le_bytes());
        let err = decode(&image, Path::new("x")).unwrap_err();
        assert!(matches!(err, StateError::Malformed { .. }), "{err}");
    }

    #[test]
    fn other_version_is_typed() {
        // v1-v3 are real historical formats; every one must cold-start
        // with a typed error, never a panic. v5 is the future.
        for found in [1u32, 2, 3, 5] {
            let mut image = encode(&sample());
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
        let s = sample();
        save(&s, &path).unwrap();
        assert_eq!(load(&path).unwrap(), s);
        // Overwrite is atomic and idempotent.
        save(&s, &path).unwrap();
        assert_eq!(load(&path).unwrap(), s);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/dysel/state.bin")).unwrap_err();
        assert!(matches!(err, StateError::Io { .. }));
    }
}
