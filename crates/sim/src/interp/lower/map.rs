//! The lowering's hash maps. Their keys — registers, constants, whole
//! instructions — are values the lowering made itself, looked up several
//! times per IR node, so they hash with one multiply and rotate per word
//! (the scheme `rustc` uses for its own tables) rather than with the
//! standard library's collision-resistant default.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by the lowering's own values.
pub(super) type Map<K, V> = HashMap<K, V, BuildHasherDefault<Mix>>;

/// A `HashSet` of the lowering's own values.
pub(super) type Set<K> = HashSet<K, BuildHasherDefault<Mix>>;

/// A multiply-rotate hash over the words written to it.
#[derive(Default)]
pub(super) struct Mix(u64);

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        for &byte in words.remainder() {
            self.write_u64(byte.into());
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
