//! The workspace's one hasher, for every map keyed by a simulated value.
//!
//! The kernel models and the analysis fold key their maps by small
//! integers the simulation itself hands out: timer handles, calendar
//! tokens, pids, timer addresses, histogram bucket ids, interned labels.
//! std's SipHash defends against keys crafted to collide, a threat model
//! that does not exist for keys a deterministic simulation generates, and
//! costs more per lookup than the model or fold work around it. This
//! hasher uses the classic Fibonacci multiply-and-rotate construction
//! instead: a couple of cycles per key.
//!
//! Swapping hashers only changes map iteration order, and no map lets
//! that order reach an output: std's per-process random seed already
//! varied it between runs while every golden and digest held, and every
//! output path sorts (or reduces commutatively) before serialising.
//! The workspace's `clippy.toml` forbids std's `HashMap` and `HashSet`
//! everywhere but at the aliases below and in one test of `telemetry`,
//! the crate this one builds on.

#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴/φ rounded to odd — the canonical Fibonacci multiplier.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The hasher state.
#[derive(Debug, Default, Clone)]
pub struct FoldHasher {
    hash: u64,
}

impl FoldHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // hashbrown derives the bucket index from the low bits and the
        // control tag from the high bits; folding the product's high
        // half down gives both ends full entropy.
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `BuildHasher` for [`FoldMap`] and [`FoldSet`].
pub type BuildFoldHasher = BuildHasherDefault<FoldHasher>;

/// A `HashMap` keyed through [`FoldHasher`].
#[allow(clippy::disallowed_types)]
pub type FoldMap<K, V> = HashMap<K, V, BuildFoldHasher>;

/// A `HashSet` keyed through [`FoldHasher`].
#[allow(clippy::disallowed_types)]
pub type FoldSet<T> = HashSet<T, BuildFoldHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinguishes_small_integer_keys() {
        let mut set = FoldSet::default();
        for i in 0..10_000u64 {
            set.insert(i);
        }
        assert_eq!(set.len(), 10_000);
        assert!(set.contains(&42));
        assert!(!set.contains(&10_000));
    }

    #[test]
    fn compound_and_string_keys_work() {
        let mut map: FoldMap<(u64, u64), u64> = FoldMap::default();
        map.insert((1, 2), 3);
        map.insert((2, 1), 4);
        assert_eq!(map[&(1, 2)], 3);
        assert_eq!(map[&(2, 1)], 4);
        let mut names: FoldMap<String, u32> = FoldMap::default();
        names.insert("kernel".to_owned(), 0);
        names.insert("kern".to_owned(), 1);
        assert_eq!(names["kernel"], 0);
        assert_eq!(names["kern"], 1);
    }
}
