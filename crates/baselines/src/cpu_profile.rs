//! Fig. 14-style CPU profiling: wall-clock shares of the bottleneck HE
//! kernels in a CPU CKKS multiply/rotate, measured over our own
//! reference implementation (the role OpenFHE plays in the paper).

use cross_math::primes;
use cross_poly::ntt;
use cross_poly::tables::NttTables;
use std::time::Instant;

/// Kernel categories of Fig. 14.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuKernel {
    /// Forward NTT.
    Ntt,
    /// Inverse NTT.
    Intt,
    /// Basis change (BConv).
    BasisChange,
    /// Vectorized modular multiplication.
    VecModMul,
    /// Vectorized modular addition.
    VecModAdd,
}

impl CpuKernel {
    /// Display label matching the figure legend.
    pub fn label(self) -> &'static str {
        match self {
            CpuKernel::Ntt => "NTT",
            CpuKernel::Intt => "INTT",
            CpuKernel::BasisChange => "BasisChange",
            CpuKernel::VecModMul => "VecModMul",
            CpuKernel::VecModAdd => "VecModAdd",
        }
    }
}

/// Measured CPU time shares for one HE operator's kernel mix.
#[derive(Debug, Clone)]
pub struct CpuProfile {
    /// `(kernel, seconds)` measurements.
    pub seconds: Vec<(CpuKernel, f64)>,
}

impl CpuProfile {
    /// Fraction of total time per kernel, descending.
    pub fn fractions(&self) -> Vec<(CpuKernel, f64)> {
        let total: f64 = self.seconds.iter().map(|(_, s)| s).sum();
        let mut v: Vec<(CpuKernel, f64)> =
            self.seconds.iter().map(|&(k, s)| (k, s / total)).collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        v
    }

    /// Combined (I)NTT share — the paper reports 45.1–86.3 % (§F).
    pub fn ntt_share(&self) -> f64 {
        self.fractions()
            .iter()
            .filter(|(k, _)| matches!(k, CpuKernel::Ntt | CpuKernel::Intt))
            .map(|(_, f)| f)
            .sum()
    }
}

/// Profiles the kernel mix of a CKKS multiply-and-relinearize on the
/// CPU at degree `n` with `limbs` moduli (radix-2 butterfly NTTs, the
/// OpenFHE decomposition).
pub fn profile_mult_relin(n: usize, limbs: usize, dnum: usize) -> CpuProfile {
    let moduli = primes::ntt_prime_chain(28, n as u64, limbs).expect("primes");
    let tables: Vec<NttTables> = moduli.iter().map(|&q| NttTables::new(n, q)).collect();
    let data: Vec<Vec<u64>> = moduli
        .iter()
        .map(|&q| (0..n as u64).map(|i| (i * 2654435761 + 7) % q).collect())
        .collect();

    // Kernel invocation counts of Mult&Relin (mirrors `costs::HE_MULT`).
    let alpha = limbs.div_ceil(dnum);
    let ext = limbs + alpha;
    let n_ntt = dnum * (ext - alpha) + 2 * (limbs - 1);
    let n_intt = limbs + 2 + alpha;
    let n_bconv_limbs = dnum * alpha + alpha;
    let n_vecmul = 4 * limbs + 2 * dnum * ext + 4 * limbs;
    let n_vecadd = limbs + 2 * dnum * ext + 4 * limbs;

    let mut seconds = Vec::new();
    // NTT / INTT
    let t0 = Instant::now();
    for i in 0..n_ntt {
        let mut v = data[i % limbs].clone();
        ntt::forward_inplace(&mut v, &tables[i % limbs]);
        std::hint::black_box(&v);
    }
    seconds.push((CpuKernel::Ntt, t0.elapsed().as_secs_f64()));
    let t0 = Instant::now();
    for i in 0..n_intt {
        let mut v = data[i % limbs].clone();
        ntt::inverse_inplace(&mut v, &tables[i % limbs]);
        std::hint::black_box(&v);
    }
    seconds.push((CpuKernel::Intt, t0.elapsed().as_secs_f64()));
    // BasisChange: L-length dot products per coefficient per output limb
    let t0 = Instant::now();
    for i in 0..n_bconv_limbs {
        let q = moduli[i % limbs];
        let mut acc = vec![0u128; n];
        for src in data.iter() {
            for (a, &x) in acc.iter_mut().zip(src) {
                *a += x as u128;
            }
        }
        let out: Vec<u64> = acc.iter().map(|&a| (a % q as u128) as u64).collect();
        std::hint::black_box(&out);
    }
    seconds.push((CpuKernel::BasisChange, t0.elapsed().as_secs_f64()));
    // VecModMul / VecModAdd
    let t0 = Instant::now();
    for i in 0..n_vecmul {
        let q = moduli[i % limbs];
        let a = &data[i % limbs];
        let b = &data[(i + 1) % limbs];
        let out: Vec<u64> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| cross_math::modops::mul_mod(x % q, y % q, q))
            .collect();
        std::hint::black_box(&out);
    }
    seconds.push((CpuKernel::VecModMul, t0.elapsed().as_secs_f64()));
    let t0 = Instant::now();
    for i in 0..n_vecadd {
        let q = moduli[i % limbs];
        let a = &data[i % limbs];
        let b = &data[(i + 1) % limbs];
        let out: Vec<u64> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| cross_math::modops::add_mod(x % q, y % q, q))
            .collect();
        std::hint::black_box(&out);
    }
    seconds.push((CpuKernel::VecModAdd, t0.elapsed().as_secs_f64()));
    CpuProfile { seconds }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntt_dominates_cpu_profile() {
        // Paper §F: (I)NTT accounts for 45.1–86.3 % of HE operators.
        let p = profile_mult_relin(1 << 11, 6, 3);
        let share = p.ntt_share();
        assert!(share > 0.30, "NTT share {share} too small");
    }

    #[test]
    fn fractions_sum_to_one() {
        let p = profile_mult_relin(1 << 9, 4, 2);
        let s: f64 = p.fractions().iter().map(|(_, f)| f).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }
}
