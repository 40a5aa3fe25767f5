//! Positioned reads: the one way the store reads its file.

use std::fs::File;
use std::io;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::tmpdir;

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
