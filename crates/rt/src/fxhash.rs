//! A deterministic FxHash-style hasher for maps keyed by the program's own
//! values: guest page numbers, block entry EIPs, interned term nodes. One
//! rotate, xor and multiply per word, against SipHash's rounds, and no
//! per-process random seed, so an [`FxHashMap`] filled the same way
//! iterates in the same order in every process and on every platform.
//!
//! It gives no protection against keys crafted to collide. A map keyed by
//! input from outside the program (JSON documents, command lines)
//! keeps std's `HashMap`.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// The multiplier of rustc's and Firefox's FxHash.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// FxHash over 64-bit words. Integers hash as their value, not their
/// native-endian bytes, so a hash is the same on every platform.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Little-endian 8-byte words; a shorter tail is zero-padded and
    /// carries its length in the top byte, so `"ab"` and `"ab\0"` differ.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            w[7] = tail.len() as u8;
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The state rotated so that the last multiply's well-mixed high bits
    /// land in the low bits `HashMap` picks buckets with; a product's low
    /// bits depend only on its factors' low bits.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    /// These values fix the iteration order of every `FxHashMap` in the
    /// workspace: a change to the hash moves them.
    #[test]
    fn known_answers() {
        assert_eq!(fx(0x1234_5678u32), 0xa19f_1c0f_6156_0ab2);
        assert_eq!(fx(0xdead_beef_0bad_f00du64), 0x35d1_5ce6_4426_e3aa);
        assert_eq!(fx((7u32, 0x1_0000_0001u64)), 0x3cb9_1e85_7893_5e09);
        // 12 bytes: one whole word, a 4-byte tail, then `str`'s 0xff.
        assert_eq!(fx("mem_000b8000"), 0x625a_d685_8cc6_2a01);
    }

    #[test]
    fn tail_length_separates_trailing_zeros() {
        assert_ne!(fx("ab"), fx("ab\0"));
    }

    #[test]
    fn maps_filled_alike_iterate_alike() {
        let fill = || {
            let mut m = FxHashMap::default();
            for k in (0..1000u32).map(|i| i.wrapping_mul(0x9e37_79b9)) {
                m.insert(k, k ^ 0x55);
            }
            m
        };
        let (a, b) = (fill(), fill());
        assert!(a.iter().eq(b.iter()));
    }
}
