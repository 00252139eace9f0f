//! Seeded property test of [`SparseBitSet`], the solver's points-to set,
//! against a `BTreeSet<u32>` reference: insertion, word-level union
//! (which must report exactly the newly added ids), iteration order and
//! `len`.

use std::collections::BTreeSet;

use rudoop_core::bitset::SparseBitSet;
use rudoop_ir::rng::SplitMix64;

const CASES: u64 = 300;

/// Draws an id. The domain varies per draw so sets mix dense runs inside
/// one word, neighbouring words, and far-apart words: a union then ORs
/// shared words and adds words before, between and after the target's.
fn draw(rng: &mut SplitMix64) -> u32 {
    let domain = [64, 300, 5_000, 1 << 20][rng.below(4)];
    rng.below(domain) as u32
}

/// A random set and its reference.
fn random_set(rng: &mut SplitMix64) -> (SparseBitSet, BTreeSet<u32>) {
    let mut set = SparseBitSet::new();
    let mut reference = BTreeSet::new();
    for _ in 0..rng.below(200) {
        let id = draw(rng);
        assert_eq!(set.insert(id), reference.insert(id), "insert({id})");
    }
    (set, reference)
}

fn assert_matches(set: &SparseBitSet, reference: &BTreeSet<u32>, what: &str) {
    let got: Vec<u32> = set.iter().collect();
    let want: Vec<u32> = reference.iter().copied().collect();
    assert_eq!(got, want, "{what}: members or iteration order");
    assert_eq!(set.len(), reference.len(), "{what}: len");
    assert_eq!(set.is_empty(), reference.is_empty(), "{what}: is_empty");
}

#[test]
fn sparse_bitset_agrees_with_btreeset() {
    for seed in 0..CASES {
        let mut rng = SplitMix64::new(0x5eed_b175 ^ seed);
        let (mut a, mut ra) = random_set(&mut rng);
        let (b, rb) = random_set(&mut rng);
        let (mut added, mut radded) = random_set(&mut rng);
        assert_matches(&a, &ra, &format!("seed {seed}: a"));

        // Union into `a`, recording the new ids into a non-empty `added`.
        let fresh: BTreeSet<u32> = rb.difference(&ra).copied().collect();
        let count = a.union_with_delta(&b, &mut added);
        assert_eq!(count, fresh.len() as u64, "seed {seed}: new-id count");
        ra.extend(rb.iter().copied());
        radded.extend(fresh.iter().copied());
        assert_matches(&a, &ra, &format!("seed {seed}: a ∪ b"));
        assert_matches(&added, &radded, &format!("seed {seed}: delta"));

        // With an empty delta, the delta is exactly the ids that were new.
        let (c, rc) = random_set(&mut rng);
        let mut delta = SparseBitSet::new();
        let fresh: BTreeSet<u32> = rc.difference(&ra).copied().collect();
        assert_eq!(a.union_with_delta(&c, &mut delta), fresh.len() as u64);
        assert_matches(&delta, &fresh, &format!("seed {seed}: exact delta"));
        ra.extend(rc.iter().copied());

        // Plain union; a repeat adds nothing.
        let (d, rd) = random_set(&mut rng);
        let fresh = rd.difference(&ra).count() as u64;
        assert_eq!(a.union(&d), fresh, "seed {seed}: union count");
        assert_eq!(a.union(&d), 0, "seed {seed}: repeated union");
        ra.extend(rd.iter().copied());
        assert_matches(&a, &ra, &format!("seed {seed}: final"));
    }
}

#[test]
fn empty_and_self_unions() {
    let mut a = SparseBitSet::new();
    let empty = SparseBitSet::new();
    assert_eq!(a.union(&empty), 0);
    assert!(a.is_empty());
    for id in [0, 63, 64, 1_000_000, u32::MAX] {
        assert!(a.insert(id));
        assert!(!a.insert(id));
    }
    assert_eq!(
        a.iter().collect::<Vec<_>>(),
        [0, 63, 64, 1_000_000, u32::MAX]
    );
    let copy = a.clone();
    let mut delta = SparseBitSet::new();
    assert_eq!(a.union_with_delta(&copy, &mut delta), 0);
    assert!(delta.is_empty());
    assert_eq!(a.word_count(), 4);
}
