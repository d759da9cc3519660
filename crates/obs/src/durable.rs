//! The workspace's one durable file write, over an IO shim that fault
//! injectors can fail, tear or cut at any operation.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// Write granularity through the IO shim; small enough that even tiny
/// artifacts span several operations, so faults can land mid-file.
const CHUNK: usize = 4096;

/// The file operations of [`atomic_write`], factored out so faults can
/// be injected at operation granularity.
pub trait CkptIo: Send + Sync + std::fmt::Debug {
    /// Creates (truncating) a file, and any missing parent directories.
    fn create(&self, path: &Path) -> io::Result<File>;
    /// Appends one chunk to an open file.
    fn write_chunk(&self, file: &mut File, chunk: &[u8]) -> io::Result<()>;
    /// Flushes file contents to stable storage.
    fn sync(&self, file: &mut File) -> io::Result<()>;
    /// Atomically renames `from` to `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Flushes a directory's entries (created, renamed and removed
    /// names) to stable storage.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// Pass-through [`CkptIo`] used in normal operation.
#[derive(Debug, Default)]
pub struct StdIo;

impl CkptIo for StdIo {
    fn create(&self, path: &Path) -> io::Result<File> {
        match File::create(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                fs::create_dir_all(parent_dir(path))?;
                File::create(path)
            }
            created => created,
        }
    }

    fn write_chunk(&self, file: &mut File, chunk: &[u8]) -> io::Result<()> {
        file.write_all(chunk)
    }

    fn sync(&self, file: &mut File) -> io::Result<()> {
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

/// The directory holding `path`'s entry: `.` for a bare relative name,
/// whose `parent()` is the empty path.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Writes `bytes` to `path` through `io`: temp file in the same
/// directory → chunked writes → fsync → rename → fsync of the directory,
/// and of the parent of each directory the write had to create. Readers
/// see the old file or the complete new one, a crash leaves at worst an
/// orphaned `.{name}.tmp-{pid}`, and `Ok` means the new name is durable:
/// it survives power loss.
///
/// # Errors
///
/// Returns the first I/O error. The temp file is removed on a failed
/// write (best effort); a failed directory sync leaves the complete file
/// in place.
pub fn atomic_write(io: &dyn CkptIo, path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let dir = parent_dir(path);
    let name = path.file_name().ok_or(io::ErrorKind::InvalidInput)?;
    let tmp = dir.join(format!(
        ".{}.tmp-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    // Deepest first; `create` makes them.
    let fresh: Vec<&Path> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
        .collect();

    let written = (|| {
        let mut file = io.create(&tmp)?;
        for chunk in bytes.chunks(CHUNK) {
            io.write_chunk(&mut file, chunk)?;
        }
        io.sync(&mut file)?;
        drop(file);
        io.rename(&tmp, path)?;
        io.sync_dir(dir)
    })();
    if written.is_err() {
        // Best effort — a dead process would leave the temp file too.
        let _ = io.remove(&tmp);
    }
    // Also after a failed write: a later write into a directory that now
    // exists must not inherit an entry that never reached the disk.
    let linked = fresh
        .iter()
        .filter(|d| d.is_dir())
        .try_for_each(|d| io.sync_dir(parent_dir(d)));
    written.and(linked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::Mutex;

    #[test]
    fn atomic_write_replaces_contents() {
        let path = std::env::temp_dir().join(format!("metadse-fmt-{}", std::process::id()));
        atomic_write(&StdIo, &path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&StdIo, &path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        fs::remove_file(&path).ok();
    }

    /// Resolves every path under `root` (as a chroot would) and logs each
    /// operation with the path it was given.
    #[derive(Debug)]
    struct Rooted {
        root: PathBuf,
        log: Mutex<Vec<String>>,
    }

    impl Rooted {
        fn at(&self, op: &str, path: &Path) -> PathBuf {
            self.log
                .lock()
                .unwrap()
                .push(format!("{op} {}", path.display()));
            self.root.join(path)
        }
    }

    impl CkptIo for Rooted {
        fn create(&self, path: &Path) -> io::Result<File> {
            StdIo.create(&self.at("create", path))
        }
        fn write_chunk(&self, file: &mut File, chunk: &[u8]) -> io::Result<()> {
            self.log.lock().unwrap().push("write".into());
            StdIo.write_chunk(file, chunk)
        }
        fn sync(&self, file: &mut File) -> io::Result<()> {
            self.log.lock().unwrap().push("sync".into());
            StdIo.sync(file)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            let from = self.at("rename", from);
            StdIo.rename(&from, &self.root.join(to))
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            StdIo.remove(&self.at("remove", path))
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            StdIo.sync_dir(&self.at("sync_dir", dir))
        }
    }

    fn rooted(tag: &str) -> Rooted {
        let root =
            std::env::temp_dir().join(format!("metadse-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        Rooted {
            root,
            log: Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn bare_file_name_syncs_the_current_directory() {
        let io = rooted("bare");
        atomic_write(&io, Path::new("x.json"), &[7u8; CHUNK + 1]).unwrap();
        assert_eq!(fs::read(io.root.join("x.json")).unwrap(), [7u8; CHUNK + 1]);
        let tmp = format!("./.x.json.tmp-{}", std::process::id());
        assert_eq!(
            *io.log.lock().unwrap(),
            [
                format!("create {tmp}"),
                "write".into(),
                "write".into(),
                "sync".into(),
                format!("rename {tmp}"),
                "sync_dir .".into(),
            ]
        );
        fs::remove_dir_all(&io.root).ok();
    }

    #[test]
    fn created_directories_are_synced_into_their_parents() {
        // Absolute paths (the shim's root stays empty): `atomic_write`
        // looks for missing directories on the real filesystem.
        let base = rooted("fresh").root;
        let io = Rooted {
            root: PathBuf::new(),
            log: Mutex::new(Vec::new()),
        };
        let target = base.join("a").join("b").join("x.json");
        atomic_write(&io, &target, b"{}").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"{}");
        let log = io.log.lock().unwrap();
        let synced: Vec<String> = [base.join("a").join("b"), base.join("a"), base.clone()]
            .iter()
            .map(|d| format!("sync_dir {}", d.display()))
            .collect();
        assert_eq!(
            log[log.len() - 3..],
            synced,
            "the file's directory, then each created directory's parent"
        );
        drop(log);
        fs::remove_dir_all(&base).ok();
    }
}
