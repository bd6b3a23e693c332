//! Seeded parity suite for the flattened forest kernel.
//!
//! The flat struct-of-arrays arena and the batched predict path are pure
//! performance work: both must be bit-identical to the original
//! pointer-walking implementation (the crate's unit tests pin a pooled
//! model build at every worker count). These tests pin that equivalence with `==` on `f64`
//! (never a tolerance) across a grid of seeds, ensemble sizes, and
//! depths. Forests are compared by their arenas, which `==` bit for bit.

use smartflux_ml::{Classifier, Dataset, RandomForest};

/// Deterministic multi-feature dataset with interacting signal, noise,
/// and duplicated values (so trees exercise tie handling).
fn dataset(n: usize, seed: u64) -> Dataset {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let a = (next() % 1000) as f64 / 100.0;
        let b = (next() % 100) as f64 / 10.0;
        let c = (next() % 7) as f64; // heavy duplication
        let d = (next() % 1000) as f64 / 250.0;
        let label = a + b * 0.5 > 7.5 || (c >= 4.0 && d > 2.0);
        x.push(vec![a, b, c, d]);
        y.push(label);
    }
    Dataset::new(x, y).expect("synthetic dataset is well-formed")
}

fn probes(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            vec![
                (t * 0.37) % 10.0,
                (t * 0.11) % 10.0,
                (t % 7.0),
                (t * 0.53) % 4.0,
            ]
        })
        .collect()
}

#[test]
fn flat_arena_is_bit_identical_to_pointer_walk() {
    for seed in [0_u64, 1, 42, 0xDEAD_BEEF] {
        for (n_trees, depth) in [(1, 1), (5, 4), (20, 8), (50, 16)] {
            let mut rf = RandomForest::new(n_trees)
                .with_max_depth(depth)
                .with_seed(seed);
            rf.fit(&dataset(300, seed)).expect("fit");
            for probe in probes(200) {
                let flat = rf.predict_proba(&probe);
                let reference = rf.predict_proba_reference(&probe);
                assert!(
                    flat == reference,
                    "seed={seed} trees={n_trees} depth={depth}: flat {flat} != ref {reference}"
                );
            }
        }
    }
}

#[test]
fn batched_predictions_are_bit_identical_to_per_sample() {
    for seed in [3_u64, 99] {
        let mut rf = RandomForest::new(30).with_max_depth(12).with_seed(seed);
        rf.fit(&dataset(400, seed)).expect("fit");
        let batch = probes(500);
        let batched = rf.predict_batch(&batch).expect("fitted");
        assert_eq!(batched.len(), batch.len());
        for (probe, p) in batch.iter().zip(&batched) {
            assert!(rf.predict_proba(probe) == *p, "seed={seed}");
            assert!(rf.predict_proba_reference(probe) == *p, "seed={seed}");
        }
    }
}

/// FNV-1a (64-bit) of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The models are the same models: the arena of one fixed forest, printed
/// with `Debug` (an f64 prints as the shortest string that reads back to
/// the same bits) and hashed. The pin was taken at the commit before the
/// forest codec was deleted, where the same forest's codec bytes still
/// matched their own pin from before the presorted grower. Induction is
/// deterministic (seeded RNG, IEEE arithmetic, no hash-map order), so any
/// change to this value is a change to what every session trains and
/// refits at recovery — never "harmless".
#[test]
fn induction_golden_is_pinned() {
    let full = dataset(300, 19);
    // 300 × 2: one near-continuous column, one with seven distinct values.
    let x: Vec<Vec<f64>> = full.x().iter().map(|r| vec![r[0], r[2]]).collect();
    let data = Dataset::new(x, full.y().to_vec()).expect("well-formed");
    let mut rf = RandomForest::new(20).with_max_depth(10).with_seed(19);
    rf.fit(&data).expect("fit");
    let printed = format!("{:?}", rf.arena());
    assert_eq!(
        (
            rf.arena().n_nodes(),
            printed.len(),
            fnv1a(printed.as_bytes())
        ),
        (1_650, 33_943, 0x6E8F_3758_2780_2D8E_u64),
        "forest induction no longer produces the pinned model"
    );
}
