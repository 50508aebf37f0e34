//! The workspace's one fast, deterministic hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher in the Fx style: a few ns per word, where SipHash
/// costs as much as the small computations its keys stand for. It hashes
/// [`Class`](crate::Class) states once at construction and keys the
/// per-thread summary memos of the Theorem 1 prover and verifier.
///
/// Deterministic (no random seed) and not DoS-hardened. That is fine for
/// its users: a collision only costs a comparison, because every lookup
/// compares full keys by structural equality.
#[derive(Default)]
pub struct FxHasher(u64);

/// A `BuildHasher` for `HashMap`s keyed through [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = 0u64;
            for (i, &b) in rest.iter().enumerate() {
                last |= (b as u64) << (8 * i);
            }
            self.add(last);
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}
