//! Deterministic signal generators shared by the workloads.
//!
//! Every generator is a pure function of `(seed, entity, wave)`, which is
//! what lets the evaluation harness run identical twins: two stores fed by
//! the same factory see byte-identical container contents under synchronous
//! execution.

/// A fast deterministic hash of up to three indices, returned in `[0, 1)`.
///
/// Used as seeded "noise": unlike an RNG stream, the value for a given
/// `(seed, a, b)` never depends on evaluation order.
#[must_use]
pub fn unit_hash(seed: u64, a: u64, b: u64) -> f64 {
    // SplitMix64-style mixing.
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Smooth value noise over the wave axis: linear interpolation between
/// per-knot hashes, with `period` waves between knots.
///
/// Produces gentle drifts ("no major steep slopes") suitable for the
/// paper's sensor feeds.
///
/// # Panics
///
/// Panics if `period` is zero.
#[must_use]
pub fn smooth_noise(seed: u64, entity: u64, wave: u64, period: u64) -> f64 {
    assert!(period > 0, "period must be positive");
    let knot = wave / period;
    let t = (wave % period) as f64 / period as f64;
    let a = unit_hash(seed, entity, knot);
    let b = unit_hash(seed, entity, knot + 1);
    // Smoothstep interpolation for a continuous derivative.
    let s = t * t * (3.0 - 2.0 * t);
    a + (b - a) * s
}

/// Periodic smooth value noise: like [`smooth_noise`] but the knot sequence
/// wraps every `cycle` waves, so the signal repeats exactly with period
/// `cycle`.
///
/// The paper's feeds exhibit "a cycle of a pattern that repeats across
/// time" (§5.2) — its AQHI week and LRB day recur — and this generator is
/// what gives our workloads that property.
///
/// # Panics
///
/// Panics if `period` is zero or `cycle` is not a multiple of `period`.
#[must_use]
pub fn periodic_noise(seed: u64, entity: u64, wave: u64, period: u64, cycle: u64) -> f64 {
    assert!(period > 0, "period must be positive");
    assert!(
        cycle.is_multiple_of(period),
        "cycle ({cycle}) must be a multiple of period ({period})"
    );
    let knots = cycle / period;
    let knot = (wave / period) % knots;
    let next = (knot + 1) % knots;
    let t = (wave % period) as f64 / period as f64;
    let a = unit_hash(seed, entity, knot);
    let b = unit_hash(seed, entity, next);
    let s = t * t * (3.0 - 2.0 * t);
    a + (b - a) * s
}

/// A diurnal (24-wave period) curve in `[0, 1]`, peaking mid-period.
///
/// Models the paper's hour-by-hour Amazon-rainforest day (Fig. 3): values
/// rise through the morning, peak in the afternoon, fall at night.
#[must_use]
pub fn diurnal(wave: u64, phase_hours: f64) -> f64 {
    let hour = (wave % 24) as f64 + phase_hours;
    let radians = (hour - 6.0) / 24.0 * std::f64::consts::TAU;
    (radians.sin() + 1.0) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_hash_is_deterministic_and_bounded() {
        for a in 0..50 {
            for b in 0..10 {
                let v = unit_hash(7, a, b);
                assert!((0.0..1.0).contains(&v));
                assert_eq!(v, unit_hash(7, a, b));
            }
        }
    }

    #[test]
    fn unit_hash_differs_across_seeds() {
        let same = (0..100)
            .filter(|&a| unit_hash(1, a, 0) == unit_hash(2, a, 0))
            .count();
        assert!(same < 5);
    }

    #[test]
    fn smooth_noise_has_small_steps() {
        let max_step = (1..200)
            .map(|w| (smooth_noise(3, 0, w, 12) - smooth_noise(3, 0, w - 1, 12)).abs())
            .fold(0.0, f64::max);
        // With period 12, per-wave steps stay well under the knot range.
        assert!(max_step < 0.3, "step {max_step} too steep");
    }

    #[test]
    fn smooth_noise_hits_knots() {
        assert_eq!(smooth_noise(3, 5, 24, 12), unit_hash(3, 5, 2));
    }

    #[test]
    fn periodic_noise_repeats_exactly() {
        for w in 0..168 {
            assert_eq!(
                periodic_noise(5, 3, w, 8, 168),
                periodic_noise(5, 3, w + 168, 8, 168)
            );
            assert_eq!(
                periodic_noise(5, 3, w, 8, 168),
                periodic_noise(5, 3, w + 336, 8, 168)
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be a multiple")]
    fn periodic_noise_rejects_misaligned_cycle() {
        let _ = periodic_noise(1, 1, 0, 5, 168);
    }

    #[test]
    fn diurnal_peaks_in_afternoon() {
        let noon = diurnal(12, 0.0);
        let midnight = diurnal(0, 0.0);
        assert!(noon > 0.9);
        assert!(midnight < 0.1);
        // 24-wave periodicity.
        assert!((diurnal(5, 0.0) - diurnal(29, 0.0)).abs() < 1e-12);
    }
}
