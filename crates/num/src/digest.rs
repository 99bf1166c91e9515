//! The workspace's one content hash: 64-bit FNV-1a.
//!
//! Every persistent digest — the Markov chain-spec key, the evaluation
//! cache's genome and problem keys, the chaos fault schedules, the
//! checkpoint and sidecar integrity trailers — is FNV-1a over a
//! little-endian byte stream built through [`Fnv`], so every layer folds
//! words the same way.

/// Incremental FNV-1a (64-bit) hasher over machine words.
///
/// # Examples
///
/// ```
/// use clre_num::digest::Fnv;
///
/// let mut fnv = Fnv::new();
/// fnv.write_u64(7);
/// let mut bytes = Fnv::new();
/// bytes.write_bytes(&7u64.to_le_bytes());
/// assert_eq!(fnv.finish(), bytes.finish());
/// assert_eq!(Fnv::hash_bytes(b""), Fnv::new().finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// The digest of `bytes` alone.
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut fnv = Fnv::new();
        fnv.write_bytes(bytes);
        fnv.finish()
    }

    /// Folds one 64-bit word (as little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.write_bytes(&word.to_le_bytes());
    }

    /// Folds an `f64` by its IEEE-754 bit pattern (exact bits: `-0.0`
    /// and `0.0` hash differently, as do distinct NaN payloads).
    #[inline]
    pub fn write_f64(&mut self, value: f64) {
        self.write_u64(value.to_bits());
    }

    /// Folds raw bytes.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Test vectors of the FNV reference implementation.
        assert_eq!(Fnv::hash_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::hash_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv::hash_bytes(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
