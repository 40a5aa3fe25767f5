//! The fault-injectable syscall boundary for the write path.
//!
//! Every syscall the crash-safe writer issues goes through
//! [`SegmentIo`], so a chaos implementation (see `svc::chaos`'s
//! `ChaosSegmentIo`) can simulate `EIO`, short writes, bit flips, and
//! crashes at each point — the substrate of the crash-matrix test.
//! Production code uses [`RealIo`], which forwards to `std::fs`.
//!
//! The read path does not go through this trait: it is positioned reads
//! (see [`crate::sys`]), and read-side damage is modelled by corrupting
//! the file itself — which is also what real bit-rot looks like.

use std::fs::File;
use std::io;
use std::path::Path;

/// Write-path syscalls, one method per injection point. Methods map
/// 1:1 onto the chaos points `store.create`, `store.write`,
/// `store.sync_file`, `store.rename`, and `store.sync_dir`.
pub trait SegmentIo: Send + Sync {
    /// Creates (truncating) the temp file.
    fn create(&self, path: &Path) -> io::Result<File>;
    /// Writes the full image to the temp file.
    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()>;
    /// Flushes the temp file's data and metadata to stable storage.
    fn sync_file(&self, file: &File) -> io::Result<()>;
    /// Atomically renames the temp file over the destination.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes the directory entry (makes the rename durable).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// The production [`SegmentIo`]: plain `std::fs` syscalls.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealIo;

impl SegmentIo for RealIo {
    fn create(&self, path: &Path) -> io::Result<File> {
        File::create(path)
    }

    fn write_all(&self, file: &mut File, buf: &[u8]) -> io::Result<()> {
        use io::Write;
        file.write_all(buf)
    }

    fn sync_file(&self, file: &File) -> io::Result<()> {
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // On Unix a directory opens like a file and fsyncs its
        // entries; elsewhere the rename is as durable as it gets.
        #[cfg(unix)]
        {
            File::open(dir)?.sync_all()
        }
        #[cfg(not(unix))]
        {
            let _ = dir;
            Ok(())
        }
    }
}
