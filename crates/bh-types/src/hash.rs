//! A fixed integer hasher for the simulator's per-request maps.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd constant with well-spread bits: the multiplier of the
/// multiply-rotate step.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

/// A deterministic multiply-rotate hasher for integer keys.
///
/// The standard library's SipHash resists hash flooding, which a
/// simulator keyed by its own request ids, bank indices and line
/// addresses does not need, and it costs several times more per key.
/// This hasher folds each integer word into its state with one add and
/// one multiply and rotates the product on `finish`, so the well-mixed
/// high bits land in the low bits the table indexes with (line addresses
/// are multiples of 64, and an unrotated product would keep their zero
/// low bits). It has no random state, so a map's layout never depends on
/// the process; its iteration order is still hash order, which bh-lint's
/// determinism rule keeps product code from relying on. Keys from
/// outside the program should keep SipHash.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
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
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` hashed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    #[test]
    fn hashes_are_fixed_across_hashers() {
        assert_eq!(hash_of(0x4000u64), hash_of(0x4000u64));
        assert_eq!(hash_of((3usize, 17u64)), hash_of((3usize, 17u64)));
        assert_ne!(hash_of((3usize, 17u64)), hash_of((17usize, 3u64)));
    }

    #[test]
    fn line_addresses_spread_over_the_low_bits() {
        // Consecutive 64-byte lines must not share their low hash bits,
        // or a table indexed by them would chain every line together.
        let buckets: FastSet<u64> = (0..256u64).map(|line| hash_of(line * 64) & 0xff).collect();
        assert!(buckets.len() > 128, "{} distinct buckets", buckets.len());
    }

    #[test]
    fn maps_and_sets_work_as_usual() {
        let mut map: FastMap<(usize, usize), u32> = FastMap::default();
        *map.entry((1, 2)).or_insert(0) += 2;
        *map.entry((1, 2)).or_insert(0) += 1;
        assert_eq!(map[&(1, 2)], 3);
        let mut set = FastSet::default();
        assert!(set.insert(0x40u64));
        assert!(!set.insert(0x40u64));
        assert!(set.remove(&0x40));
    }
}
