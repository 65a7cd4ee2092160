//! Crash-safe artifact writes: temp-file + atomic rename.
//!
//! Every artifact the pipeline persists — trace JSON, benchmark reports,
//! generated corpora — goes through [`atomic_write`], so a reader can never
//! observe a half-written file: the bytes land in a sibling temp file
//! first and are renamed over the destination only once fully flushed
//! (`rename(2)` is atomic within a filesystem). A crash mid-write leaves
//! the previous version of the artifact intact plus at worst a stray
//! `.tmp.*` file, never a truncated artifact.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Writes `bytes` to `path` atomically: the data is written and flushed
/// to `path.tmp.<pid>` in the same directory, then renamed over `path`.
///
/// # Errors
///
/// Any underlying filesystem error (create, write, flush or rename). On
/// error the destination is untouched; the temp file is cleaned up on a
/// best-effort basis.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = match path.file_name().and_then(|n| n.to_str()) {
        Some(name) => path.with_file_name(format!("{name}.tmp.{}", std::process::id())),
        None => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("atomic_write target {} has no file name", path.display()),
            ))
        }
    };
    let write_all = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Contents must be durable before the rename makes them visible.
        f.sync_all()
    })();
    if let Err(e) = write_all {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rbsyn-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    #[test]
    fn writes_and_replaces() {
        let p = scratch("artifact.json");
        atomic_write(&p, b"first").expect("write");
        assert_eq!(fs::read(&p).expect("read"), b"first");
        atomic_write(&p, b"second version").expect("rewrite");
        assert_eq!(fs::read(&p).expect("read"), b"second version");
        // No temp residue after a successful write.
        let dir = p.parent().expect("has parent");
        let residue = fs::read_dir(dir)
            .expect("list")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(residue, 0);
        let _ = fs::remove_file(&p);
    }

    #[test]
    fn bad_target_is_an_error() {
        assert!(atomic_write(Path::new("/"), b"x").is_err());
    }
}
