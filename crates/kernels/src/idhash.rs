//! A cheap hasher for component ids and packed id pairs.
//!
//! The contraction step keys its maps on [`CompId`](crate::cgraph::CompId)s
//! ([`IdMap`], [`IdSet`]) and its multi-edge table on `(a << 32) | b`
//! component pairs ([`id_hash`]). Those keys are plain integers
//! that no adversary chooses, so SipHash's DoS resistance buys nothing and
//! costs most of a probe. [`IdHasher`] folds each word in with one
//! multiply (the rustc `FxHasher` step). A product's low bits depend only
//! on the key's low bits, so `finish` xors the high half into the low half,
//! where hashbrown takes its bucket index from.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative word hasher for integer keys (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(K);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// [`IdHasher`]'s hash of one word, for tables that probe by hand.
#[inline]
pub fn id_hash(x: u64) -> u64 {
    let mut h = IdHasher::default();
    h.write_u64(x);
    h.finish()
}

/// `HashMap` over integer ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` over integer ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_pairs_spread_over_low_bits() {
        // Pairs sharing `a` differ only in the low word; pairs sharing `b`
        // only in the high word. Both must land in many distinct buckets
        // of a 1024-slot table.
        for pairs in [
            (0..1024u64).map(|b| (7 << 32) | b).collect::<Vec<_>>(),
            (0..1024u64).map(|a| (a << 32) | 7).collect(),
        ] {
            let buckets: IdSet<u64> = pairs.iter().map(|&p| id_hash(p) & 1023).collect();
            assert!(buckets.len() > 500, "{} buckets", buckets.len());
        }
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: IdMap<u32, u32> = IdMap::default();
        for i in 0..10_000u32 {
            m.insert(i * 3, i);
        }
        assert_eq!(m.len(), 10_000);
        assert_eq!(m.get(&2997), Some(&999));
        assert_eq!(m.get(&2998), None);
    }
}
