//! A multiply-rotate hasher for the cost model's keys: a group indicator's
//! mask, an interned holding's axis-id tuple, a sequence list and a side
//! profile's content. No key comes from outside the process, so the maps
//! keyed by them need no DoS-resistant SipHash, only a cheap deterministic
//! mix.

use std::hash::{BuildHasherDefault, Hasher};

/// The `HashMap` hasher state of [`WordHasher`].
pub(crate) type WordHash = BuildHasherDefault<WordHasher>;

/// Folds each 8-byte word into the state as `(h ⟲ 5 ⊕ w) · K`; `finish`
/// rotates the well-mixed high bits down to where the table indexes.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher {
    hash: u64,
}

impl WordHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn distinct_small_keys_spread_over_the_low_bits() {
        // Masks differing only in high bits must not share a bucket index.
        let state = WordHash::default();
        let buckets: HashSet<u64> = (0..32u32).map(|b| state.hash_one(1u32 << b) & 63).collect();
        assert!(buckets.len() > 16, "{} distinct buckets", buckets.len());
        assert_eq!(state.hash_one([1u16; 8]), state.hash_one([1u16; 8]));
        assert_ne!(state.hash_one([1u16; 8]), state.hash_one([2u16; 8]));
    }
}
