//! The hasher of the simulators' per-contact maps: FxHash, the
//! multiply-rotate word hash of the Firefox and rustc hash tables.
//!
//! The std default, SipHash with a per-process random key, resists
//! collision flooding by untrusted input. Simulator keys are node ids the
//! program assigns densely, and small tuples of them, not input an
//! adversary picks; the maps holding them are probed on every contact, so
//! a one-multiply hash is the better trade.
//!
//! The choice is for speed only: no output depends on a map's iteration
//! order (the std maps it replaces iterated in a different order in every
//! process).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash state: each word is folded in as
/// `hash = (hash.rotate_left(5) ^ word) * SEED`.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// An odd constant with well-spread bits (from the original FxHash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A [`HashMap`] hashed with [`FxHasher`]; build one with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A [`HashSet`] hashed with [`FxHasher`]; build one with `default()`.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::Hash;

    use super::*;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn words_fold_by_rotate_xor_multiply() {
        assert_eq!(hash_of(&0u32), 0);
        assert_eq!(hash_of(&1u32), SEED);
        assert_eq!(
            hash_of(&(1u32, 2u32)),
            (SEED.rotate_left(5) ^ 2).wrapping_mul(SEED)
        );
        // Bytes fold as little-endian words; a short tail is zero-padded.
        let mut h = FxHasher::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(h.finish(), (SEED.rotate_left(5) ^ 2).wrapping_mul(SEED));
    }
}
