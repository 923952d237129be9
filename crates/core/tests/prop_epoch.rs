//! Property tests for [`VisitEpoch`], the scope function's `O(1)`-reset
//! bitmap, driven by the same SplitMix64 generator the fuzzing oracle
//! uses: it is checked against a `HashSet` model across random
//! insert/contains/clear/grow schedules, including epochs pinned next to
//! `u32::MAX` so the wraparound hard-reset path runs.

use incgraph_core::VisitEpoch;
use std::collections::HashSet;

/// SplitMix64 — same generator as `incgraph-oracle`, inlined so the core
/// crate's tests stay dependency-free.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn visit_epoch_matches_hashset_model() {
    for seed in 0..30u64 {
        let mut rng = SplitMix64::new(0xE90C ^ seed.wrapping_mul(31));
        let mut len = 1 + rng.below(64) as usize;
        let mut s = VisitEpoch::new(len);
        let mut model: HashSet<usize> = HashSet::new();
        for step in 0..500 {
            match rng.below(12) {
                0..=5 => {
                    let x = rng.below(len as u64) as usize;
                    let fresh = s.insert(x);
                    assert_eq!(fresh, model.insert(x), "seed {seed} step {step}");
                }
                6..=8 => {
                    let x = rng.below(len as u64) as usize;
                    assert_eq!(s.contains(x), model.contains(&x), "seed {seed} step {step}");
                }
                9 => {
                    s.clear();
                    model.clear();
                }
                _ => {
                    len += rng.below(16) as usize;
                    s.grow_to(len);
                    // Growth must not disturb membership.
                    for &m in &model {
                        assert!(s.contains(m), "seed {seed} step {step}: grow lost {m}");
                    }
                }
            }
            assert_eq!(s.count(), model.len(), "seed {seed} step {step}");
            assert_eq!(s.len(), len, "seed {seed} step {step}");
        }
    }
}

#[test]
fn visit_epoch_wraparound_is_transparent() {
    for seed in 0..30u64 {
        let mut rng = SplitMix64::new(0x3A9F ^ seed.wrapping_mul(0xC0FFEE));
        let len = 1 + rng.below(48) as usize;
        let mut s = VisitEpoch::new(len);
        // Park the epoch within a few clears of u32::MAX so every
        // schedule below crosses the hard-reset wrap at least once.
        s.jump_to_epoch(u32::MAX - rng.below(4) as u32);
        let mut model: HashSet<usize> = HashSet::new();
        for step in 0..200 {
            match rng.below(8) {
                0..=4 => {
                    let x = rng.below(len as u64) as usize;
                    assert_eq!(s.insert(x), model.insert(x), "seed {seed} step {step}");
                }
                5..=6 => {
                    let x = rng.below(len as u64) as usize;
                    assert_eq!(
                        s.contains(x),
                        model.contains(&x),
                        "seed {seed} step {step}: membership diverged across wrap"
                    );
                }
                _ => {
                    s.clear();
                    model.clear();
                }
            }
            assert_eq!(s.count(), model.len(), "seed {seed} step {step}");
        }
        // Stale marks from pre-wrap epochs must never resurface.
        s.clear();
        for x in 0..len {
            assert!(!s.contains(x), "seed {seed}: slot {x} leaked across wrap");
        }
    }
}
