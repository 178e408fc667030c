//! Durable atomic file writes, shared by the state file, the trained
//! model file and the feature-corpus export.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The directory holding `path`; a bare file name lives in `.`.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Atomically and durably writes `bytes` to `path`: the bytes go to a
/// sibling temp file, which is synced to disk and renamed over `path`,
/// and then the directory is synced so the rename itself survives a
/// crash. A crash at any point leaves either the previous file or the new
/// one intact, never a torn one.
///
/// # Errors
///
/// The I/O error, with the path it hit: the temp file, `path` or its
/// directory. A failed write or rename removes the temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), (PathBuf, io::Error)> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let write = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()
    })();
    if let Err(e) = write {
        let _ = fs::remove_file(&tmp);
        return Err((tmp, e));
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err((path.to_path_buf(), e));
    }
    let dir = parent_dir(path);
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| (dir.to_path_buf(), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_file_name_syncs_the_current_directory() {
        assert_eq!(parent_dir(Path::new("state")), Path::new("."));
        assert_eq!(parent_dir(Path::new("dir/state")), Path::new("dir"));
        assert_eq!(parent_dir(Path::new("/state")), Path::new("/"));
        // A write to a bare file name syncs `.`, not an empty path.
        let path = PathBuf::from(format!(
            "dysel-write-atomic-bare-{}.bin",
            std::process::id()
        ));
        let written = write_atomic(&path, b"payload");
        let read = fs::read(&path);
        let _ = fs::remove_file(&path);
        written.unwrap();
        assert_eq!(read.unwrap(), b"payload");
    }

    #[test]
    fn failed_write_names_the_temp_file_and_leaves_nothing() {
        let dir = std::env::temp_dir().join(format!("dysel-write-atomic-{}", std::process::id()));
        let path = dir.join("missing-subdir").join("file.bin");
        let (failed, _) = write_atomic(&path, b"x").unwrap_err();
        assert!(failed.starts_with(&dir), "{}", failed.display());
        assert!(!dir.exists());
    }
}
