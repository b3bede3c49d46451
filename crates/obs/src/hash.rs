//! FNV-1a 64: the one hash behind every identity in the workspace — span
//! ids, result fingerprints, store content keys and serve shard routing.
//!
//! Allocation-free, and `#[inline]` so fingerprint loops in other crates
//! fold words as fast as a local copy would.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 digest.
///
/// ```
/// use uniq_obs::Fnv64;
///
/// let mut h = Fnv64::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(Fnv64::hash(b""), 0xcbf2_9ce4_8422_2325);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    h: u64,
}

impl Fnv64 {
    /// A fresh digest at the FNV offset basis.
    #[inline]
    pub const fn new() -> Fnv64 {
        Fnv64 { h: OFFSET }
    }

    /// Folds a byte string.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.h = (self.h ^ u64::from(byte)).wrapping_mul(PRIME);
        }
    }

    /// Folds one 64-bit word, byte by byte, little-endian.
    #[inline]
    pub fn eat(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.h
    }

    /// One-shot digest of a byte string.
    #[inline]
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_test_vectors() {
        assert_eq!(Fnv64::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn words_fold_as_their_little_endian_bytes() {
        let mut by_word = Fnv64::new();
        by_word.eat(0x0102_0304_0506_0708);
        assert_eq!(by_word.finish(), Fnv64::hash(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}
