//! Hash maps over the keys the engine assigns itself.
//!
//! A query's coverage state is keyed by word ids (indexes into the dense
//! `φ` table) and by window [`Slot`]s (indexes into the active window's
//! slab).  Neither comes from outside the program: both are small, dense
//! integers the engine hands out, so nobody can choose them to collide, and
//! a collision-resistant hasher buys nothing but its cost.  [`DenseMap`]
//! hashes them with one multiplicative step instead of SipHash.
//!
//! External ids ([`ElementId`](ksir_types::ElementId)) keep the default
//! hasher: they are hashed once, at the boundary, by the window's id index.
//! [`DenseKey`] is sealed and implemented only for [`WordId`] and [`Slot`],
//! so an external id cannot end up in a `DenseMap`:
//!
//! ```compile_fail
//! use ksir_core::dense::DenseMap;
//! use ksir_types::ElementId;
//!
//! let map: DenseMap<ElementId, f64> = DenseMap::new();
//! ```
//!
//! while the engine's own keys can:
//!
//! ```
//! use ksir_core::dense::DenseMap;
//! use ksir_types::WordId;
//!
//! let mut map: DenseMap<WordId, f64> = DenseMap::new();
//! *map.get_or_insert(WordId(7), 0.0) += 0.5;
//! assert_eq!(map.get(WordId(7)), Some(&0.5));
//! assert_eq!(map.get(WordId(8)), None);
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::stream::Slot;
use ksir_types::WordId;

mod sealed {
    pub trait Sealed {}
    impl Sealed for ksir_types::WordId {}
    impl Sealed for crate::stream::Slot {}
}

/// A key the engine assigns itself — a word id or a window slot — and so a
/// key [`DenseMap`] may hash without collision resistance.  Sealed: no other
/// type can implement it.
pub trait DenseKey: sealed::Sealed + Copy + Eq + Hash {}

impl DenseKey for WordId {}
impl DenseKey for Slot {}

/// A hash map keyed by an engine-assigned [`DenseKey`], hashed with one
/// multiply per key.
#[derive(Debug, Clone)]
pub struct DenseMap<K: DenseKey, V> {
    map: HashMap<K, V, BuildHasherDefault<DenseHasher>>,
}

impl<K: DenseKey, V> Default for DenseMap<K, V> {
    fn default() -> Self {
        DenseMap {
            map: HashMap::default(),
        }
    }
}

impl<K: DenseKey, V> DenseMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if no key is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The value of `key`, if held.
    pub fn get(&self, key: K) -> Option<&V> {
        self.map.get(&key)
    }

    /// The value of `key`, which is inserted as `value` if missing.
    pub fn get_or_insert(&mut self, key: K, value: V) -> &mut V {
        self.map.entry(key).or_insert(value)
    }
}

/// The multiplicative (Fibonacci) hasher behind [`DenseMap`]: each word is
/// folded into the state and multiplied by `2^64 / φ`.  For dense keys the
/// product's low bits (the bucket) differ for keys that differ in their low
/// bits, and its high bits (the control byte) are well mixed.
#[derive(Debug, Default, Clone, Copy)]
struct DenseHasher(u64);

const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl DenseHasher {
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for DenseHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both key types hash through the one-word path, and distinct dense
    /// keys land in distinct low bits — the buckets of a small table.
    #[test]
    fn dense_keys_spread_over_the_low_bits() {
        let hash = |key: &dyn Fn(&mut DenseHasher)| {
            let mut hasher = DenseHasher::default();
            key(&mut hasher);
            hasher.finish()
        };
        let mask = (1u64 << 10) - 1;
        let mut buckets: Vec<u64> = (0..1024u32)
            .map(|n| hash(&|h| WordId(n).hash(h)) & mask)
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert_eq!(buckets.len(), 1024);
        // A slot hashes exactly like the word id with the same index.
        let mut window = crate::stream::ActiveWindow::new(
            crate::stream::WindowConfig::new(100, 1).expect("a valid window"),
        );
        for id in 1..=4 {
            let element = ksir_types::SocialElementBuilder::new(id).build();
            window.insert(element).expect("a fresh id");
        }
        let slot = window.slot(ksir_types::ElementId(4)).expect("active");
        assert_eq!(slot.index(), 3);
        assert_eq!(hash(&|h| slot.hash(h)), hash(&|h| WordId(3).hash(h)));
    }

    #[test]
    fn get_or_insert_keeps_the_first_value() {
        let mut map: DenseMap<WordId, usize> = DenseMap::new();
        assert!(map.is_empty());
        *map.get_or_insert(WordId(1), 10) += 1;
        assert_eq!(*map.get_or_insert(WordId(1), 99), 11);
        assert_eq!(map.len(), 1);
        assert_eq!(map.get(WordId(2)), None);
    }
}
