//! Bitsets over id domains.
//!
//! - [`IdBitSet`] is a dense, fixed-domain bitset indexed by IR ids, used to
//!   store refinement sets in complement form (the paper's footnote 4: the
//!   *not*-refined sets are tiny, but membership is queried on every context
//!   construction, so it must be `O(1)` and cache-friendly).
//! - [`SparseBitSet`] is a growable set of dense `u32` ids stored as sorted
//!   non-zero 64-bit words: the solver's points-to sets, where union is
//!   word-level and memory follows the number of occupied words, not the
//!   size of the id domain.

use std::marker::PhantomData;

use rudoop_ir::Idx;

/// A fixed-capacity bitset over an id domain `I`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdBitSet<I: Idx> {
    words: Vec<u64>,
    len: usize,
    _marker: PhantomData<fn(I)>,
}

impl<I: Idx> IdBitSet<I> {
    /// An empty set over a domain of `len` ids.
    pub fn new(len: usize) -> Self {
        IdBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
            _marker: PhantomData,
        }
    }

    /// Domain size this set was created for.
    pub fn domain_size(&self) -> usize {
        self.len
    }

    /// Inserts `id`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the domain.
    pub fn insert(&mut self, id: I) -> bool {
        let i = id.index();
        assert!(i < self.len, "id {i} out of bitset domain {}", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Whether `id` is in the set. Ids outside the domain are absent.
    #[inline]
    pub fn contains(&self, id: I) -> bool {
        let i = id.index();
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of ids in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = I> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(I::from_usize(wi * 64 + b))
            })
        })
    }
}

/// A growable set of `u32` ids, stored as its non-zero 64-bit words in
/// increasing word order: entry `(k, bits)` holds the ids `64k + b` for
/// every set bit `b` of `bits`.
///
/// Union is word-level — `new = src & !dst` per word — so propagating a
/// set costs one AND-NOT/OR per occupied word rather than one hash probe
/// per id, and the newly added ids come out as whole words too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseBitSet {
    words: Vec<(u32, u64)>,
}

impl SparseBitSet {
    /// An empty set.
    pub fn new() -> Self {
        SparseBitSet::default()
    }

    /// Inserts `id`; returns whether it was newly inserted.
    pub fn insert(&mut self, id: u32) -> bool {
        self.or_word(id / 64, 1u64 << (id % 64)) != 0
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.words
            .iter()
            .map(|&(_, w)| w.count_ones() as usize)
            .sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of occupied 64-bit words (the cost of one union with this
    /// set as its source).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().flat_map(|&(k, w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(k * 64 + b)
            })
        })
    }

    /// ORs `bits` into word `key`; returns the bits that were new.
    fn or_word(&mut self, key: u32, bits: u64) -> u64 {
        let i = self.words.partition_point(|&(k, _)| k < key);
        match self.words.get_mut(i) {
            Some((k, w)) if *k == key => {
                let new = bits & !*w;
                *w |= new;
                new
            }
            _ => {
                self.words.insert(i, (key, bits));
                bits
            }
        }
    }

    /// ORs `other` into `self`, calling `on_new(key, bits)` for each word's
    /// newly added bits in increasing key order. Returns the number of
    /// newly added ids.
    ///
    /// Shared words are ORed in place; words `self` lacks are appended and
    /// the two sorted runs merged once at the end.
    fn union_impl(&mut self, other: &SparseBitSet, mut on_new: impl FnMut(u32, u64)) -> u64 {
        let mut added = 0u64;
        let ours = self.words.len();
        let mut i = 0;
        for &(key, bits) in &other.words {
            i += self.words[i..ours].partition_point(|&(k, _)| k < key);
            let new = match self.words[..ours].get_mut(i) {
                Some((k, w)) if *k == key => {
                    let new = bits & !*w;
                    *w |= new;
                    new
                }
                _ => {
                    self.words.push((key, bits));
                    bits
                }
            };
            if new != 0 {
                added += u64::from(new.count_ones());
                on_new(key, new);
            }
        }
        if self.words.len() > ours {
            // Two sorted runs: the stable sort merges them in one pass.
            self.words.sort_by_key(|&(k, _)| k);
        }
        added
    }

    /// ORs `other` into `self`; returns the number of newly added ids.
    pub fn union(&mut self, other: &SparseBitSet) -> u64 {
        self.union_impl(other, |_, _| {})
    }

    /// ORs `other` into `self` and also ORs exactly the newly added ids
    /// into `added` (a points-to set and its delta); returns how many ids
    /// were new.
    pub fn union_with_delta(&mut self, other: &SparseBitSet, added: &mut SparseBitSet) -> u64 {
        self.union_impl(other, |key, bits| {
            added.or_word(key, bits);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rudoop_ir::AllocId;

    #[test]
    fn insert_and_contains() {
        let mut s: IdBitSet<AllocId> = IdBitSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(AllocId(0)));
        assert!(s.insert(AllocId(64)));
        assert!(s.insert(AllocId(129)));
        assert!(!s.insert(AllocId(64)));
        assert!(s.contains(AllocId(129)));
        assert!(!s.contains(AllocId(1)));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn iter_is_ordered() {
        let mut s: IdBitSet<AllocId> = IdBitSet::new(200);
        for i in [5u32, 63, 64, 199, 0] {
            s.insert(AllocId(i));
        }
        let got: Vec<u32> = s.iter().map(|a| a.0).collect();
        assert_eq!(got, vec![0, 5, 63, 64, 199]);
    }

    #[test]
    fn out_of_domain_contains_is_false() {
        let s: IdBitSet<AllocId> = IdBitSet::new(10);
        assert!(!s.contains(AllocId(10_000)));
    }

    #[test]
    #[should_panic(expected = "out of bitset domain")]
    fn out_of_domain_insert_panics() {
        let mut s: IdBitSet<AllocId> = IdBitSet::new(10);
        s.insert(AllocId(10));
    }
}
