//! Versioned, checksummed model files — same discipline as the runtime's
//! selection-state format (`dysel-core::persist`): 8-byte magic, format
//! version, explicit payload length, FNV-1a checksum, little-endian
//! length-prefixed strings, `BTreeMap`-ordered entries (so encoding the
//! same model twice is byte-identical), durable atomic saves, and a
//! typed error for every way a file can be wrong. A corrupt model file
//! never panics the consumer — prediction just stays disabled.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use dysel_kernel::{fnv1a, write_atomic, FNV_OFFSET};

use crate::model::{Model, VariantStats, FEATURE_DIM};

/// File magic: identifies a DySel model file regardless of extension.
const MAGIC: [u8; 8] = *b"DYSELMD\n";

/// Current model format version.
pub const MODEL_FORMAT_VERSION: u32 = 1;

/// Fixed header: magic, version, payload length, payload checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a model file could not be loaded (or saved). Every variant is a
/// *typed* rejection: the consumer falls back to classic profiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The filesystem failed (permission, missing directory, ...).
    Io {
        /// File involved.
        path: PathBuf,
        /// Stringified `std::io::Error`.
        detail: String,
    },
    /// The file does not start with the DySel model magic.
    BadMagic {
        /// File involved.
        path: PathBuf,
    },
    /// The file is a DySel model of a format this build cannot read.
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
    /// The payload passed the checksum but does not parse.
    Malformed {
        /// File involved.
        path: PathBuf,
        /// What failed to parse.
        detail: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Io { path, detail } => {
                write!(f, "model file {}: {detail}", path.display())
            }
            ModelError::BadMagic { path } => {
                write!(f, "model file {}: not a DySel model file", path.display())
            }
            ModelError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "model file {}: format version {found} (this build reads v{supported})",
                path.display()
            ),
            ModelError::Truncated { path } => {
                write!(f, "model file {}: truncated", path.display())
            }
            ModelError::ChecksumMismatch { path } => {
                write!(f, "model file {}: checksum mismatch", path.display())
            }
            ModelError::Malformed { path, detail } => {
                write!(f, "model file {}: malformed ({detail})", path.display())
            }
        }
    }
}

impl std::error::Error for ModelError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Serializes a model to the full on-disk byte image (header + payload).
pub fn encode(model: &Model) -> Vec<u8> {
    let mut payload = Vec::new();
    put_u32(&mut payload, model.table.len() as u32);
    for (sig, entry) in &model.table {
        put_str(&mut payload, sig);
        put_u32(&mut payload, entry.len() as u32);
        for (variant, stats) in entry {
            put_str(&mut payload, variant);
            put_u64(&mut payload, stats.mean_cycles);
            put_u64(&mut payload, stats.observations);
        }
    }
    put_u32(&mut payload, FEATURE_DIM as u32);
    put_u64(&mut payload, model.winner_examples);
    put_u64(&mut payload, model.loser_examples);
    for v in model.winner_centroid {
        put_i64(&mut payload, v);
    }
    for v in model.loser_centroid {
        put_i64(&mut payload, v);
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&MODEL_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(FNV_OFFSET, &payload).to_le_bytes());
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
    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.at..end];
                self.at = end;
                Ok(s)
            }
            None => Err(ModelError::Malformed {
                path: self.path.to_path_buf(),
                detail: "length field exceeds payload".to_owned(),
            }),
        }
    }

    fn u32(&mut self) -> Result<u32, ModelError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ModelError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, ModelError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, ModelError> {
        let len = self.u32()? as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| ModelError::Malformed {
            path: self.path.to_path_buf(),
            detail: "name is not UTF-8".to_owned(),
        })
    }
}

/// Parses a full on-disk byte image back into a model.
pub fn decode(bytes: &[u8], path: &Path) -> Result<Model, ModelError> {
    let malformed = |detail: &str| ModelError::Malformed {
        path: path.to_path_buf(),
        detail: detail.to_owned(),
    };
    if bytes.len() < 8 || bytes[..8] != MAGIC {
        if bytes.len() >= 8 || !MAGIC.starts_with(bytes) {
            return Err(ModelError::BadMagic {
                path: path.to_path_buf(),
            });
        }
        return Err(ModelError::Truncated {
            path: path.to_path_buf(),
        });
    }
    if bytes.len() < HEADER_LEN {
        return Err(ModelError::Truncated {
            path: path.to_path_buf(),
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != MODEL_FORMAT_VERSION {
        return Err(ModelError::UnsupportedVersion {
            path: path.to_path_buf(),
            found: version,
            supported: MODEL_FORMAT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != payload_len {
        return Err(ModelError::Truncated {
            path: path.to_path_buf(),
        });
    }
    if fnv1a(FNV_OFFSET, payload) != checksum {
        return Err(ModelError::ChecksumMismatch {
            path: path.to_path_buf(),
        });
    }
    let mut cur = Cursor {
        bytes: payload,
        at: 0,
        path,
    };
    let mut model = Model::default();
    let n_sigs = cur.u32()?;
    for _ in 0..n_sigs {
        let sig = cur.string()?;
        let n_variants = cur.u32()?;
        let mut entry = BTreeMap::new();
        for _ in 0..n_variants {
            let variant = cur.string()?;
            let stats = VariantStats {
                mean_cycles: cur.u64()?,
                observations: cur.u64()?,
            };
            if entry.insert(variant, stats).is_some() {
                return Err(malformed("duplicate variant in signature entry"));
            }
        }
        if model.table.insert(sig, entry).is_some() {
            return Err(malformed("duplicate signature entry"));
        }
    }
    let dim = cur.u32()? as usize;
    if dim != FEATURE_DIM {
        return Err(malformed("centroid dimension mismatch"));
    }
    model.winner_examples = cur.u64()?;
    model.loser_examples = cur.u64()?;
    for v in &mut model.winner_centroid {
        *v = cur.i64()?;
    }
    for v in &mut model.loser_centroid {
        *v = cur.i64()?;
    }
    if cur.at != payload.len() {
        return Err(malformed("trailing bytes after payload"));
    }
    Ok(model)
}

/// Loads a model file. Every failure mode — missing file, wrong magic,
/// version skew, truncation, corruption — surfaces as a [`ModelError`].
pub fn load(path: &Path) -> Result<Model, ModelError> {
    let bytes = fs::read(path).map_err(|e| ModelError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    })?;
    decode(&bytes, path)
}

/// Atomically and durably writes a model file (see
/// [`dysel_kernel::write_atomic`]): a crash at any point leaves either the
/// previous file or the new one intact.
pub fn save(model: &Model, path: &Path) -> Result<(), ModelError> {
    write_atomic(path, &encode(model)).map_err(|(path, e)| ModelError::Io {
        path,
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> Model {
        let mut model = Model {
            winner_examples: 6,
            loser_examples: 9,
            ..Model::default()
        };
        model.table.insert(
            "sgemm".into(),
            BTreeMap::from([
                (
                    "tiled".into(),
                    VariantStats {
                        mean_cycles: 700,
                        observations: 2,
                    },
                ),
                (
                    "naive".into(),
                    VariantStats {
                        mean_cycles: 1200,
                        observations: 2,
                    },
                ),
            ]),
        );
        model.winner_centroid = [7; FEATURE_DIM];
        model.loser_centroid = [-3; FEATURE_DIM];
        model
    }

    #[test]
    fn round_trip_is_lossless_and_deterministic() {
        let model = sample_model();
        let image = encode(&model);
        assert_eq!(image, encode(&model));
        let back = decode(&image, Path::new("m.bin")).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn corruption_is_typed() {
        let p = Path::new("m.bin");
        let image = encode(&sample_model());
        assert!(matches!(
            decode(b"not a model", p),
            Err(ModelError::BadMagic { .. })
        ));
        assert!(matches!(
            decode(&image[..HEADER_LEN + 3], p),
            Err(ModelError::Truncated { .. })
        ));
        let mut flipped = image.clone();
        *flipped.last_mut().unwrap() ^= 0xff;
        assert!(matches!(
            decode(&flipped, p),
            Err(ModelError::ChecksumMismatch { .. })
        ));
        let mut vers = image.clone();
        vers[8] = 99;
        assert!(matches!(
            decode(&vers, p),
            Err(ModelError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("dysel-predict-fmt-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let model = sample_model();
        save(&model, &path).unwrap();
        assert_eq!(load(&path).unwrap(), model);
        // No temp file left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
