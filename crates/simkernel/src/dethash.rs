//! Deterministic hashing for hot-path maps.
//!
//! `std::collections::HashMap`'s default [`std::hash::RandomState`] is
//! keyed per process. That is invisible to anything that iterates in
//! sorted order (the DL002 discipline), but it is *not* invisible to
//! allocation accounting: under insert/remove churn, whether a table
//! rehashes in place or grows depends on where tombstones landed, which
//! depends on the random key — so two identical runs can differ by a
//! couple of table-growth allocations. The counting allocator made that
//! jitter measurable (±2 allocations in `shard.sim` per run), and the
//! fix is the classic one: a fixed-seed hasher.
//!
//! [`DetHasher`] is FNV-1a (64-bit), seeded with the FNV offset basis —
//! deterministic across processes, platforms, and thread counts. It is
//! **not** DoS-resistant; use it only for maps keyed by simulation
//! state (ids the simulation itself generated), never for
//! attacker-controlled input. Map iteration order becomes deterministic
//! for a fixed insertion sequence as a side effect, but callers must
//! still sort before iterating where output order matters: the
//! iteration order is an implementation detail of the table, not a
//! contract.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a streaming hasher with a fixed seed.
#[derive(Debug, Clone)]
pub struct DetHasher(u64);

impl Default for DetHasher {
    fn default() -> Self {
        DetHasher(FNV_OFFSET)
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit of one contiguous buffer: a fresh [`DetHasher`] after
/// one `write`. The workspace's single FNV-1a — fault site keys, outcome
/// and counts digests, and the verifiers all hash through it, so every
/// "byte-identical" claim is made against the same function.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = DetHasher::default();
    h.write(bytes);
    h.finish()
}

/// `BuildHasher` producing [`DetHasher`]s. Zero-sized and `const`
/// constructible, so maps can live in statics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildDetHasher;

impl BuildDetHasher {
    /// Const constructor (usable in `static` initialisers).
    pub const fn new() -> Self {
        BuildDetHasher
    }
}

impl BuildHasher for BuildDetHasher {
    type Hasher = DetHasher;

    #[inline]
    fn build_hasher(&self) -> DetHasher {
        DetHasher::default()
    }
}

/// A `HashMap` whose allocation behaviour is identical across runs.
pub type DetHashMap<K, V> = HashMap<K, V, BuildDetHasher>;

/// A `HashSet` with the same fixed-seed hasher.
pub type DetHashSet<T> = HashSet<T, BuildDetHasher>;

/// Empty [`DetHashMap`] (convenience: `HashMap::new` is not available
/// for custom hashers).
pub fn det_hash_map<K, V>() -> DetHashMap<K, V> {
    HashMap::with_hasher(BuildDetHasher)
}

/// Empty [`DetHashSet`].
pub fn det_hash_set<T>() -> DetHashSet<T> {
    HashSet::with_hasher(BuildDetHasher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        BuildDetHasher.hash_one(value)
    }

    #[test]
    fn known_fnv1a_vectors() {
        let mut h = DetHasher::default();
        h.write(b"");
        assert_eq!(h.finish(), FNV_OFFSET);
        let mut h = DetHasher::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b""), FNV_OFFSET);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn chunking_is_irrelevant() {
        let whole = fnv1a64(b"records are streamed in pieces");
        let mut h = DetHasher::default();
        h.write(b"records are ");
        h.write(b"");
        h.write(b"streamed in pieces");
        assert_eq!(h.finish(), whole);
        assert_ne!(fnv1a64(b"ledger-a"), fnv1a64(b"ledger-b"));
    }

    #[test]
    fn hash_is_stable_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"key"), hash_of(&"key"));
        assert_ne!(hash_of(&"key"), hash_of(&"yek"));
    }

    #[test]
    fn map_roundtrip_under_churn() {
        let mut m: DetHashMap<u64, Vec<u64>> = det_hash_map();
        for i in 0..1000u64 {
            m.insert(i, vec![i]);
            if i % 3 == 0 {
                m.remove(&(i / 2));
            }
        }
        assert!(m.contains_key(&999));
        assert!(!m.is_empty());
        let mut keys: Vec<u64> = m.keys().copied().collect();
        keys.sort_unstable();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    /// The property the hasher exists for: an identical insert/remove
    /// schedule produces an identical sequence of table capacities.
    #[test]
    fn growth_schedule_is_reproducible() {
        let run = || {
            let mut caps = Vec::new();
            let mut m: DetHashMap<u64, u64> = det_hash_map();
            for i in 0..500u64 {
                m.insert(i * 7919, i);
                if i % 5 == 0 {
                    m.remove(&((i / 2) * 7919));
                }
                caps.push(m.capacity());
            }
            caps
        };
        assert_eq!(run(), run());
    }
}
