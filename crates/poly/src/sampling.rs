//! Random polynomial sampling for RLWE (uniform, ternary, discrete Gaussian).

use rand::Rng;

/// Standard deviation of the RLWE error distribution (HE standard \[7\]).
pub const ERROR_SIGMA: f64 = 3.2;

/// Uniform coefficients in `[0, q)`.
pub fn uniform_poly<R: Rng>(rng: &mut R, n: usize, q: u64) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(0..q)).collect()
}

/// Signed ternary coefficients (for cross-basis reuse of one secret).
pub fn ternary_signed<R: Rng>(rng: &mut R, n: usize) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(-1..=1)).collect()
}

/// Centered discrete Gaussian (σ = [`ERROR_SIGMA`]) by rounding a
/// Box–Muller normal — adequate for functional reproduction (the paper's
/// evaluation is performance-, not security-focused).
pub fn gaussian_signed<R: Rng>(rng: &mut R, n: usize, sigma: f64) -> Vec<i64> {
    (0..n)
        .map(|_| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (z * sigma).round() as i64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_in_range() {
        let mut rng = StdRng::seed_from_u64(42);
        let q = 268_369_921u64;
        let p = uniform_poly(&mut rng, 1024, q);
        assert!(p.iter().all(|&x| x < q));
    }

    #[test]
    fn gaussian_statistics() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 1 << 14;
        let s = gaussian_signed(&mut rng, n, ERROR_SIGMA);
        let mean: f64 = s.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let var: f64 = s.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.2, "mean={mean}");
        assert!((var.sqrt() - ERROR_SIGMA).abs() < 0.3, "std={}", var.sqrt());
        // tail sanity: nothing wildly outside 6σ
        assert!(s
            .iter()
            .all(|&v| v.unsigned_abs() < (6.0 * ERROR_SIGMA) as u64 + 2));
    }

    #[test]
    fn deterministic_given_seed() {
        let q = 268_369_921u64;
        let a = uniform_poly(&mut StdRng::seed_from_u64(1), 64, q);
        let b = uniform_poly(&mut StdRng::seed_from_u64(1), 64, q);
        assert_eq!(a, b);
    }
}
