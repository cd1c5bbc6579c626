//! Minimal random-sampling helpers.
//!
//! The workspace deliberately avoids a distributions crate; the only
//! non-uniform draw the models need is a standard normal, implemented
//! here with the Box–Muller transform.

use rand::Rng;

/// Draws the uniform pair behind one standard normal sample, in stream
/// order: `u1 ∈ (0, 1]` first, then `u2 ∈ [0, 1)`.
#[inline]
pub(crate) fn uniform_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    // u1 ∈ (0, 1] so the logarithm is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (u1, u2)
}

/// The Box–Muller transform of one [`uniform_pair`].
///
/// Its sign is the sign of `cos(2π·u2)`, so for `u2` strictly inside
/// `(1/4, 3/4)` it is negative, or `+0.0` when `u1 = 1`
/// (`sqrt(-0.0)·cos = +0.0`).
#[inline]
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Advances a SplitMix64 state and returns the next 64-bit output.
///
/// This is the generator behind the deterministic fault plans: it is
/// tiny, stateless beyond one `u64`, and produces the same stream on
/// every platform, so a `(seed, intensity)` pair always yields the
/// same faults.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a 64-bit hash to a uniform value in `[0, 1)`.
///
/// Uses the top 53 bits so the result is exactly representable and the
/// mapping is identical everywhere.
pub fn unit_from_bits(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn standard_normal(rng: &mut StdRng) -> f64 {
        let (u1, u2) = uniform_pair(rng);
        box_muller(u1, u2)
    }

    #[test]
    fn moments_match_standard_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }

    #[test]
    fn splitmix_streams_replay() {
        let mut a = 7u64;
        let mut b = 7u64;
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b)).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn unit_from_bits_stays_in_unit_interval() {
        let mut s = 99u64;
        for _ in 0..1000 {
            let u = unit_from_bits(splitmix64(&mut s));
            assert!((0.0..1.0).contains(&u), "{u}");
        }
        assert_eq!(unit_from_bits(0), 0.0);
        assert!(unit_from_bits(u64::MAX) < 1.0);
    }
}
