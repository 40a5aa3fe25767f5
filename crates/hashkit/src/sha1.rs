//! SHA-1 (FIPS 180-1), implemented from scratch.
//!
//! The paper's *single hash function* approach (§3.2.2, §5.2.1) computes
//! one SHA-1 digest per hash string and splits the 160-bit output into
//! k partial values, each used as an index into the AB (Table 1).
//! Cryptographic strength is irrelevant here — the paper picks SHA-1
//! because its output is pattern-free — but the implementation is the
//! real algorithm, validated against the published FIPS test vectors.

/// Digest size in bytes.
pub const DIGEST_BYTES: usize = 20;

/// Computes the SHA-1 digest of `data`.
///
/// # Examples
///
/// ```
/// use hashkit::sha1::sha1;
///
/// // FIPS 180-1 Appendix A test vector.
/// let d = sha1(b"abc");
/// assert_eq!(hex(&d), "a9993e364706816aba3e25717850c26c9cd0d89d");
///
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
pub fn sha1(data: &[u8]) -> [u8; DIGEST_BYTES] {
    let mut state: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];

    // Message padding: 0x80, zeros, 64-bit big-endian bit length.
    let bit_len = (data.len() as u64) * 8;
    let mut buf = Vec::with_capacity(data.len() + 72);
    buf.extend_from_slice(data);
    buf.push(0x80);
    while buf.len() % 64 != 56 {
        buf.push(0);
    }
    buf.extend_from_slice(&bit_len.to_be_bytes());

    for block in buf.chunks_exact(64) {
        process_block(&mut state, block);
    }

    let mut out = [0u8; DIGEST_BYTES];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn process_block(state: &mut [u32; 5], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | (!b & d), 0x5A827999),
            20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
            _ => (b ^ c ^ d, 0xCA62C1D6),
        };
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// Splits a SHA-1 digest stream into `k` values of `m` bits each —
/// Table 1 of the paper: "160-bit output split into 10 sets of 16 bits".
///
/// When `k * m > 160` the digest is extended by re-hashing it, so
/// arbitrarily many partial hashes are available.
pub fn split_digest(x: u64, k: usize, m: u32) -> Vec<u64> {
    assert!((1..=64).contains(&m), "chunk width {m} out of range");
    let mut bits = DigestStream::new(x);
    (0..k).map(|_| bits.take(m)).collect()
}

/// A bit reader over the (extended) SHA-1 digest of an integer key —
/// the incremental form of [`split_digest`], used by the lazy prober
/// so retrieval can stop at the first zero AB bit without computing
/// the remaining chunks.
#[derive(Clone, Copy, Debug)]
pub struct DigestStream {
    digest: [u8; DIGEST_BYTES],
    bit_pos: usize,
}

impl DigestStream {
    /// Starts the stream at the digest of `x`'s little-endian bytes.
    pub fn new(x: u64) -> Self {
        DigestStream {
            digest: sha1(&x.to_le_bytes()),
            bit_pos: 0,
        }
    }

    /// Reads `m` bits, most significant first, extending the digest by
    /// re-hashing when exhausted.
    pub fn take(&mut self, m: u32) -> u64 {
        let mut v = 0u64;
        for _ in 0..m {
            if self.bit_pos == DIGEST_BYTES * 8 {
                self.digest = sha1(&self.digest);
                self.bit_pos = 0;
            }
            let byte = self.digest[self.bit_pos / 8];
            let bit = (byte >> (7 - self.bit_pos % 8)) & 1;
            v = (v << 1) | bit as u64;
            self.bit_pos += 1;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn empty_message() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha1(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn exact_block_boundary_lengths() {
        // 55, 56, 63, 64 byte messages exercise padding edge cases.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0u8; len];
            let d = sha1(&data);
            assert_eq!(d.len(), DIGEST_BYTES, "len {len}");
            // Digest must differ from a one-byte-longer message.
            assert_ne!(d, sha1(&vec![0u8; len + 1]), "len {len}");
        }
    }

    #[test]
    fn split_digest_table1_shape() {
        // Table 1: k=10 chunks of 16 bits from the 160-bit digest.
        let parts = split_digest(42, 10, 16);
        assert_eq!(parts.len(), 10);
        assert!(parts.iter().all(|&p| p < (1 << 16)));
        // Concatenation must reproduce the digest prefix.
        let digest = sha1(&42u64.to_le_bytes());
        let first = u64::from(u16::from_be_bytes([digest[0], digest[1]]));
        assert_eq!(parts[0], first);
    }

    #[test]
    fn split_digest_extends_past_160_bits() {
        // 20 chunks × 16 bits = 320 bits > 160: requires extension.
        let parts = split_digest(7, 20, 16);
        assert_eq!(parts.len(), 20);
        // Extension chunks must not simply repeat the first 160 bits.
        assert_ne!(&parts[..10], &parts[10..]);
    }

    #[test]
    fn split_digest_deterministic() {
        assert_eq!(split_digest(123, 5, 20), split_digest(123, 5, 20));
        assert_ne!(split_digest(123, 5, 20), split_digest(124, 5, 20));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_digest_rejects_zero_width() {
        split_digest(1, 1, 0);
    }
}
