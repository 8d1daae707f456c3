//! The workspace's digest hasher.
//!
//! [`DetHasher`] is FNV-1a (64-bit), seeded with the FNV offset basis, so
//! a digest is the same across processes, platforms, and thread counts
//! (`std`'s `RandomState` is keyed per process). Digests stream their
//! bytes through it or hash one buffer with [`fnv1a64`]; a byte string
//! known in advance can be prepared once as an [`FnvConst`] and folded
//! in O(1) with [`DetHasher::write_const`]. It is **not** DoS-resistant,
//! and it backs no hash table: the simulation keeps its state in
//! ordered tables.

use std::fmt;
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

impl DetHasher {
    /// A hasher that continues from `state`, a value [`Hasher::finish`]
    /// returned.
    pub fn with_state(state: u64) -> DetHasher {
        DetHasher(state)
    }

    /// Fold a prepared constant: the state [`Hasher::write`] of its
    /// bytes would leave, in one table load, one multiply and one add
    /// (see [`FnvConst`] for why that is exact).
    #[inline]
    pub fn write_const(&mut self, c: &FnvConst) {
        let low = c
            .table
            .get(usize::from(self.0 as u8))
            .copied()
            .unwrap_or_default();
        self.0 = (self.0 & !0xff).wrapping_mul(c.mul).wrapping_add(low);
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

/// A fixed byte string `s`, prepared so that [`DetHasher::write_const`]
/// folds it into any state in O(1).
///
/// The fold is exact. An FNV-1a step xors a byte into the state's low
/// byte only, and the low byte of a product depends only on the low
/// bytes of its factors. So from a state `h = H + l`, with `l = h & 0xff`
/// and `H` a multiple of 256, writing `s` leaves `H·P^|s| + g(l)`, where
/// `P` is the FNV prime and `g(l)` is the state writing `s` leaves from
/// the state `l` alone (induction on `s`: `H·P^k` stays a multiple of
/// 256, so the xor of the next byte never reaches it). The 256 values
/// `g(l)` are computed by [`Hasher::write`] itself, so the workspace
/// keeps one FNV-1a loop. A constant takes 2 KiB; preparing one costs
/// 256 writes of `s`.
#[derive(Clone)]
pub struct FnvConst {
    /// `P^|s|`, wrapping.
    mul: u64,
    /// `table[l] = g(l)`.
    table: [u64; 256],
}

impl FnvConst {
    /// Prepare `bytes` for folding.
    pub fn new(bytes: &[u8]) -> FnvConst {
        let mut table = [0u64; 256];
        for (low, slot) in (0u64..).zip(table.iter_mut()) {
            let mut h = DetHasher(low);
            h.write(bytes);
            *slot = h.0;
        }
        let mul = bytes
            .iter()
            .fold(1u64, |mul, _| mul.wrapping_mul(FNV_PRIME));
        FnvConst { mul, table }
    }
}

impl fmt::Debug for FnvConst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnvConst")
            .field("mul", &self.mul)
            .finish_non_exhaustive()
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

    #[test]
    fn a_constant_folds_as_its_bytes_from_every_low_byte() {
        let bytes = b"\",\"kind\":\"FloatingIp\",\"start\":";
        let c = FnvConst::new(bytes);
        for low in 0..=0xffu64 {
            let state = 0x0123_4567_89ab_cd00 | low;
            let (mut folded, mut written) = (DetHasher(state), DetHasher(state));
            folded.write_const(&c);
            written.write(bytes);
            assert_eq!(folded.finish(), written.finish(), "low byte {low:#04x}");
        }
    }

    #[test]
    fn the_empty_constant_leaves_the_state_alone() {
        let c = FnvConst::new(b"");
        for state in [0, 0xff, FNV_OFFSET, u64::MAX] {
            let mut h = DetHasher(state);
            h.write_const(&c);
            assert_eq!(h.finish(), state);
        }
        let mut h = DetHasher::default();
        h.write_const(&c);
        assert_eq!(h.finish(), fnv1a64(b""));
    }
}
