//! Hashing primitives: a from-scratch SHA-256 and the [`Hash32`] digest
//! newtype used for transaction and block identities.
//!
//! The Stabl study never stresses cryptographic CPU cost (the workload is a
//! constant 200 TPS, far below saturation), so signatures are modelled as
//! unforgeable tags elsewhere; hashing however is implemented for real so
//! that identities behave exactly like in production chains (collision
//! resistance, avalanche effect, stable across platforms).

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit digest.
///
/// # Examples
///
/// ```
/// use stabl_types::Hash32;
///
/// let h = Hash32::digest(b"abc");
/// assert_eq!(
///     h.to_string(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
///
/// # Ordering contract
///
/// Digests order as four big-endian `u64` words, which is the same
/// total order as byte-lexicographic comparison of
/// [`Hash32::as_bytes`]: a big-endian word orders exactly like its
/// eight bytes, and the first differing word holds the first differing
/// byte. Every digest-keyed ordered map in the workspace therefore
/// iterates in byte order, while a comparison between distinct digests
/// is one integer compare instead of a `memcmp` call.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Hash32([u8; 32]);

impl Ord for Hash32 {
    #[inline]
    fn cmp(&self, other: &Hash32) -> Ordering {
        for (a, b) in self.0.chunks_exact(8).zip(other.0.chunks_exact(8)) {
            let a = u64::from_be_bytes(a.try_into().expect("8-byte chunk"));
            let b = u64::from_be_bytes(b.try_into().expect("8-byte chunk"));
            if a != b {
                return a.cmp(&b);
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for Hash32 {
    #[inline]
    fn partial_cmp(&self, other: &Hash32) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash32 {
    /// The all-zero digest (used as the genesis parent).
    pub const ZERO: Hash32 = Hash32([0u8; 32]);

    /// Hashes `data` with SHA-256.
    pub fn digest(data: &[u8]) -> Hash32 {
        let mut hasher = Sha256::new();
        hasher.update(data);
        hasher.finalize()
    }

    /// Combines two digests into one (Merkle-style inner node).
    pub fn combine(self, other: Hash32) -> Hash32 {
        let mut hasher = Sha256::new();
        hasher.update(&self.0);
        hasher.update(&other.0);
        hasher.finalize()
    }

    /// The raw digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Creates a digest from raw bytes.
    pub const fn from_bytes(bytes: [u8; 32]) -> Hash32 {
        Hash32(bytes)
    }

    /// The first 8 bytes as a big-endian integer — handy as a
    /// deterministic pseudo-random value derived from the digest (the
    /// VRF-output trick used by the sortition module).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Display for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Short form: first 4 bytes, like git abbreviations.
        write!(
            f,
            "Hash32({:02x}{:02x}{:02x}{:02x}…)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl AsRef<[u8]> for Hash32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher (FIPS 180-4).
///
/// # Examples
///
/// ```
/// use stabl_types::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let once = {
///     let mut h = Sha256::new();
///     h.update(b"hello world");
///     h.finalize()
/// };
/// assert_eq!(hasher.finalize(), once);
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length: u64,
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buffered > 0 {
            let take = rest.len().min(64 - self.buffered);
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&rest[..take]);
            self.buffered += take;
            rest = &rest[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            self.compress(block.try_into().expect("64-byte block"));
            rest = tail;
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Produces the digest, consuming the hasher.
    pub fn finalize(mut self) -> Hash32 {
        let bit_len = self.length.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length — written
        // straight into the partial block (`buffered` < 64 always).
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            // No room left for the length: it goes in a block of its own.
            let block = self.buffer;
            self.compress(&block);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buffer;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash32(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(h: Hash32) -> String {
        h.to_string()
    }

    /// NIST FIPS 180-4 / RFC 6234 test vectors.
    #[test]
    fn nist_vectors() {
        assert_eq!(
            hex(Hash32::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(Hash32::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(Hash32::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        assert_eq!(
            hex(Hash32::digest(b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Hash32::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn lengths_around_block_boundary() {
        // Every length near the 64-byte boundary exercises a distinct
        // padding path; compare against the combine-based property that
        // distinct inputs give distinct digests.
        let mut seen = std::collections::HashSet::new();
        for len in 0..=130 {
            let data = vec![0xAB; len];
            assert!(seen.insert(Hash32::digest(&data)), "collision at {len}");
        }
    }

    #[test]
    fn combine_is_ordered() {
        let a = Hash32::digest(b"a");
        let b = Hash32::digest(b"b");
        assert_ne!(a.combine(b), b.combine(a));
    }

    #[test]
    fn prefix_u64_is_big_endian() {
        let h = Hash32::from_bytes([
            0, 0, 0, 0, 0, 0, 0, 1, //
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]);
        assert_eq!(h.prefix_u64(), 1);
    }

    /// The ordering contract, exhaustively over where two digests first
    /// differ: the later bytes are set against the deciding byte, so a
    /// comparison that read a word in the wrong byte order, or let a
    /// later word overrule an earlier one, fails at that position.
    #[test]
    fn ordering_is_byte_lexicographic_at_every_first_difference() {
        for position in 0..32 {
            let mut low = [0x5A; 32];
            let mut high = [0x5A; 32];
            low[position] = 0x10;
            high[position] = 0x11;
            low[position + 1..].fill(0xFF);
            high[position + 1..].fill(0x00);
            let (l, h) = (Hash32::from_bytes(low), Hash32::from_bytes(high));
            assert_eq!(l.cmp(&h), low.cmp(&high), "first difference at {position}");
            assert_eq!(h.cmp(&l), high.cmp(&low), "first difference at {position}");
            assert_eq!(l.partial_cmp(&h), Some(Ordering::Less));
            assert_ne!(l, h);
            assert_eq!(l.cmp(&l), Ordering::Equal);
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// `cmp`/`eq` on digests equal `cmp`/`eq` on their bytes, for
        /// unrelated digests and for pairs sharing a prefix of any
        /// length (32 = equal digests).
        #[test]
        fn ordering_and_equality_match_the_bytes(
            a in proptest::collection::vec(any::<u8>(), 32..33),
            b in proptest::collection::vec(any::<u8>(), 32..33),
            shared in 0usize..33,
        ) {
            let a: [u8; 32] = a.try_into().expect("32 bytes");
            let mut b: [u8; 32] = b.try_into().expect("32 bytes");
            for bytes in [b, { b[..shared].copy_from_slice(&a[..shared]); b }] {
                let (x, y) = (Hash32::from_bytes(a), Hash32::from_bytes(bytes));
                prop_assert_eq!(x.cmp(&y), a.cmp(&bytes));
                prop_assert_eq!(y.cmp(&x), bytes.cmp(&a));
                prop_assert_eq!(x.partial_cmp(&y), a.partial_cmp(&bytes));
                prop_assert_eq!(x == y, a == bytes);
            }
        }
    }

    #[test]
    fn debug_is_abbreviated() {
        let h = Hash32::digest(b"abc");
        let dbg = format!("{h:?}");
        assert!(dbg.starts_with("Hash32(ba7816bf"), "{dbg}");
    }
}
