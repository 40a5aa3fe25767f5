//! Read-only file mapping: `mmap(2)` on Unix via hand-rolled
//! `extern "C"` declarations (the same zero-dependency approach as
//! `net::sys`), with a portable heap-buffer fallback that reads the
//! file with positioned reads — selectable everywhere via
//! `force_pread`, exactly like the net crate's `force_poll`, so both
//! backends stay honest on Unix CI.
//!
//! The mapping is `PROT_READ` + `MAP_SHARED`: the store never writes
//! through it, and a shared mapping observes subsequent file writes —
//! which is what lets the scrubber (and tests that rot bytes on disk)
//! see damage appear under a live mapping.

use std::fs::File;
use std::io;

/// A read-only view of an open file: either a real memory mapping or
/// a heap buffer filled by positioned reads.
pub enum SegmentMap {
    /// `mmap(2)` (Unix only) — zero-copy, shares the page cache.
    #[cfg(unix)]
    Mmap(mmap::Mapping),
    /// Portable fallback: the file read into a heap buffer.
    Buf(Vec<u8>),
}

impl SegmentMap {
    /// Maps `len` bytes of `file` from offset 0. `force_pread` selects
    /// the heap-buffer backend even where mmap is available.
    pub fn map(file: &File, len: usize, force_pread: bool) -> io::Result<SegmentMap> {
        #[cfg(unix)]
        {
            if !force_pread && len > 0 {
                return Ok(SegmentMap::Mmap(mmap::Mapping::new(file, len)?));
            }
        }
        let _ = force_pread;
        let mut buf = vec![0u8; len];
        read_exact_at(file, &mut buf, 0)?;
        Ok(SegmentMap::Buf(buf))
    }

    /// Backend name, for logs and tests.
    pub fn backend(&self) -> &'static str {
        match self {
            #[cfg(unix)]
            SegmentMap::Mmap(_) => "mmap",
            SegmentMap::Buf(_) => "pread",
        }
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            SegmentMap::Mmap(m) => m.bytes(),
            SegmentMap::Buf(b) => b,
        }
    }
}

/// Positioned read of `buf.len()` bytes at `offset` — `pread(2)` on
/// Unix (no seek, safe under concurrent readers), seek + read
/// elsewhere.
pub fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        file.read_exact_at(buf, offset)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file.try_clone()?;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

/// The Unix mmap backend.
#[cfg(unix)]
pub mod mmap {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};

    const PROT_READ: c_int = 0x1;
    const MAP_SHARED: c_int = 0x01;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// An owned read-only `MAP_SHARED` mapping, unmapped on drop.
    pub struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: both fields describe the region ptr..ptr+len, which a
    // Mapping exclusively owns: no other value holds the pointer,
    // nothing in this process writes through it (PROT_READ), `len` is
    // a plain count, and the region is unmapped only by Drop. Moving
    // that ownership to another thread is moving a Box<[u8]>.
    unsafe impl Send for Mapping {}
    // SAFETY: &Mapping exposes only `bytes()`, a shared `&[u8]` over
    // read-only memory, so concurrent readers never race with a write
    // from this process (see `new` for writes from outside it).
    unsafe impl Sync for Mapping {}

    impl Mapping {
        pub(super) fn new(file: &File, len: usize) -> io::Result<Mapping> {
            debug_assert!(len > 0, "mmap of zero bytes is an error by spec");
            // SAFETY: a null hint lets the kernel place the mapping,
            // len > 0 (SegmentMap::map never maps an empty file), the fd
            // is open for the call (the mapping outlives its close), and
            // MAP_FAILED is checked below. `bytes()` then hands these
            // pages out as `&[u8]`, which Rust takes to be immutable,
            // while a MAP_SHARED mapping shows every write to the file.
            // That is sound only because a committed segment is never
            // modified in place: it is replaced by tmp + fsync + rename
            // (`store::write`), which leaves this mapping on the old
            // inode, so only external corruption can change the mapped
            // bytes — and the scrubber re-verifies exactly those bytes
            // against their page CRCs.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mapping { ptr, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr..ptr+len is a live PROT_READ mapping for
            // the lifetime of self.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: ptr and len are exactly what mmap returned, Drop
            // runs once, and every `&[u8]` from `bytes()` borrows self,
            // so none outlives the unmap.
            unsafe { munmap(self.ptr, self.len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tmpdir;

    #[test]
    fn both_backends_see_identical_bytes() {
        let dir = tmpdir("sys");
        let path = dir.join("raw.bin");
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let file = File::open(&path).unwrap();

        let pread = SegmentMap::map(&file, data.len(), true).unwrap();
        assert_eq!(pread.backend(), "pread");
        assert_eq!(pread.bytes(), &data[..]);

        #[cfg(unix)]
        {
            let mapped = SegmentMap::map(&file, data.len(), false).unwrap();
            assert_eq!(mapped.backend(), "mmap");
            assert_eq!(mapped.bytes(), pread.bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn shared_mapping_observes_file_writes() {
        let dir = tmpdir("sys-shared");
        let path = dir.join("mut.bin");
        std::fs::write(&path, vec![0u8; 4096]).unwrap();
        let file = File::open(&path).unwrap();
        let map = SegmentMap::map(&file, 4096, false).unwrap();
        assert_eq!(map.bytes()[100], 0);

        // Rot a byte through a separate writable handle: a MAP_SHARED
        // mapping must observe it (this is what lets the scrubber
        // detect on-disk damage under a live mapping).
        use std::io::{Seek, SeekFrom, Write};
        let mut w = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        w.seek(SeekFrom::Start(100)).unwrap();
        w.write_all(&[0xAB]).unwrap();
        w.sync_all().unwrap();
        assert_eq!(map.bytes()[100], 0xAB);
        drop(map);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_exact_at_reads_the_middle() {
        let dir = tmpdir("sys-pread");
        let path = dir.join("mid.bin");
        std::fs::write(&path, (0u8..=255).collect::<Vec<u8>>()).unwrap();
        let file = File::open(&path).unwrap();
        let mut buf = [0u8; 4];
        read_exact_at(&file, &mut buf, 100).unwrap();
        assert_eq!(buf, [100, 101, 102, 103]);
        // Past-EOF reads fail instead of short-reading.
        assert!(read_exact_at(&file, &mut buf, 254).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
