//! The workspace's digest hasher.
//!
//! [`DetHasher`] is FNV-1a (64-bit), seeded with the FNV offset basis, so
//! a digest is the same across processes, platforms, and thread counts
//! (`std`'s `RandomState` is keyed per process). Digests stream their
//! bytes through it or hash one buffer with [`fnv1a64`]. It is **not**
//! DoS-resistant, and it backs no hash table: the simulation keeps its
//! state in ordered tables.

use std::hash::Hasher;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
