//! Property-based tests for the radix-2 NTT and the ring operations of
//! `PolyBatch`.

use cross_math::modops::{add_mod, mul_mod, sub_mod};
use cross_math::primes;
use cross_poly::ring::Domain;
use cross_poly::{ntt, NttTables, PolyBatch, RnsContext};
use proptest::prelude::*;
use std::sync::Arc;

fn tables(logn: u32) -> NttTables {
    let n = 1usize << logn;
    NttTables::new(n, primes::ntt_prime(28, n as u64, 0).unwrap())
}

fn coeff_vec(logn: u32) -> impl Strategy<Value = Vec<u64>> {
    let n = 1usize << logn;
    let q = primes::ntt_prime(28, n as u64, 0).unwrap();
    proptest::collection::vec(0..q, n)
}

/// Degree of the ring properties below: `N = 16`, so the odd Galois
/// elements are `2·s + 1` for `s < 16`.
const RING_LOGN: u32 = 4;

fn ring_ctx() -> Arc<RnsContext> {
    let n = 1usize << RING_LOGN;
    let moduli = primes::ntt_prime_chain(28, n as u64, 2).unwrap();
    Arc::new(RnsContext::new(n, moduli))
}

/// Raw draws for one 2-limb polynomial (see [`ring_poly`]).
fn ring_draws() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 2 << RING_LOGN)
}

/// A coefficient-domain batch of one: draw chunk `i`, reduced mod `q_i`,
/// is limb `i`.
fn ring_poly(ctx: &Arc<RnsContext>, draws: &[u64]) -> PolyBatch {
    let limbs = draws
        .chunks(ctx.n())
        .zip(ctx.moduli())
        .map(|(d, &q)| d.iter().map(|&x| x % q).collect())
        .collect();
    PolyBatch::from_limbs(ctx.clone(), limbs, Domain::Coefficient)
}

/// The negacyclic product taken through [`PolyBatch::mul_pointwise`],
/// returned in the coefficient domain.
fn ring_mul(a: &PolyBatch, b: &PolyBatch) -> PolyBatch {
    let eval = Domain::Evaluation;
    let mut p = a.in_domain(eval).mul_pointwise(&b.in_domain(eval));
    p.to_coefficient();
    p
}

/// `O(N²)` schoolbook negacyclic product of one limb — the oracle for
/// [`ring_mul`].
fn schoolbook(a: &[u64], b: &[u64], q: u64) -> Vec<u64> {
    let n = a.len();
    let mut c = vec![0u64; n];
    for i in 0..n {
        for j in 0..n {
            let p = mul_mod(a[i], b[j], q);
            if i + j < n {
                c[i + j] = add_mod(c[i + j], p, q);
            } else {
                c[i + j - n] = sub_mod(c[i + j - n], p, q);
            }
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ct_roundtrip(a in coeff_vec(6)) {
        let t = tables(6);
        let mut x = a.clone();
        ntt::forward_inplace(&mut x, &t);
        ntt::inverse_inplace(&mut x, &t);
        prop_assert_eq!(x, a);
    }

    #[test]
    fn ntt_is_linear(a in coeff_vec(5), b in coeff_vec(5)) {
        let t = tables(5);
        let q = t.q();
        let fwd = |v: &[u64]| {
            let mut x = v.to_vec();
            ntt::forward_inplace(&mut x, &t);
            x
        };
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| (x + y) % q).collect();
        let (fa, fb, fsum) = (fwd(&a), fwd(&b), fwd(&sum));
        for k in 0..a.len() {
            prop_assert_eq!((fa[k] + fb[k]) % q, fsum[k]);
        }
    }
}

// Ring properties of a 2-limb `PolyBatch`: each limb is its own ring
// `Z_{q_i}[x]/(x^N + 1)`, so every identity must hold limb by limb.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn automorphisms_compose(a in ring_draws(), gs in 0u64..16, hs in 0u64..16) {
        // σ_g ∘ σ_h = σ_{gh mod 2N}, and σ_1 is the identity.
        let ctx = ring_ctx();
        let two_n = 2 * ctx.n() as u64;
        let (g, h) = (2 * gs + 1, 2 * hs + 1);
        let pa = ring_poly(&ctx, &a);
        let lhs = pa.automorphism(h).automorphism(g);
        prop_assert_eq!(lhs.limbs(), pa.automorphism(g * h % two_n).limbs());
        prop_assert_eq!(pa.automorphism(1).limbs(), pa.limbs());
    }

    #[test]
    fn automorphism_is_additive(a in ring_draws(), b in ring_draws(), gs in 0u64..16) {
        let ctx = ring_ctx();
        let g = 2 * gs + 1;
        let (pa, pb) = (ring_poly(&ctx, &a), ring_poly(&ctx, &b));
        let lhs = pa.add(&pb).automorphism(g);
        let rhs = pa.automorphism(g).add(&pb.automorphism(g));
        prop_assert_eq!(lhs.limbs(), rhs.limbs());
    }

    #[test]
    fn automorphism_is_multiplicative(a in ring_draws(), b in ring_draws(), gs in 0u64..16) {
        let ctx = ring_ctx();
        let g = 2 * gs + 1;
        let (pa, pb) = (ring_poly(&ctx, &a), ring_poly(&ctx, &b));
        let lhs = ring_mul(&pa, &pb).automorphism(g);
        let rhs = ring_mul(&pa.automorphism(g), &pb.automorphism(g));
        prop_assert_eq!(lhs.limbs(), rhs.limbs());
    }

    #[test]
    fn mul_pointwise_commutes_and_distributes(
        a in ring_draws(),
        b in ring_draws(),
        c in ring_draws(),
    ) {
        let ctx = ring_ctx();
        let eval = |d: &[u64]| {
            let mut p = ring_poly(&ctx, d);
            p.to_evaluation();
            p
        };
        let (ea, eb, ec) = (eval(&a), eval(&b), eval(&c));
        prop_assert_eq!(ea.mul_pointwise(&eb).limbs(), eb.mul_pointwise(&ea).limbs());
        let lhs = ea.add(&eb).mul_pointwise(&ec);
        let rhs = ea.mul_pointwise(&ec).add(&eb.mul_pointwise(&ec));
        prop_assert_eq!(lhs.limbs(), rhs.limbs());
    }

    #[test]
    fn mul_pointwise_matches_schoolbook(a in ring_draws(), b in ring_draws()) {
        let ctx = ring_ctx();
        let (pa, pb) = (ring_poly(&ctx, &a), ring_poly(&ctx, &b));
        let prod = ring_mul(&pa, &pb);
        for (i, &q) in ctx.moduli().iter().enumerate() {
            let want = schoolbook(&pa.limbs()[i], &pb.limbs()[i], q);
            prop_assert_eq!(&prod.limbs()[i], &want, "limb {}", i);
        }
    }
}
