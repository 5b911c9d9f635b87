//! Property-based tests for the arithmetic substrate.

use cross_math::{modops, primes, shoup, BarrettReducer, BigUint, Montgomery, RnsBasis};
use proptest::collection::vec;
use proptest::prelude::*;

const Q28: u64 = 268_369_921; // 28-bit NTT prime
const Q31: u64 = 2_147_473_409; // 31-bit prime, 2^31 - 2^13 + 1? verified in a test below

fn residue(q: u64) -> impl Strategy<Value = u64> {
    0..q
}

#[test]
fn fixture_moduli_are_prime() {
    assert!(primes::is_prime(Q28));
    assert!(primes::is_prime(Q31));
}

proptest! {
    #[test]
    fn barrett_equals_reference(a in residue(Q28), b in residue(Q28)) {
        let br = BarrettReducer::new(Q28);
        prop_assert_eq!(br.mul_mod(a, b), modops::mul_mod(a, b, Q28));
    }

    #[test]
    fn barrett_equals_reference_31bit(a in residue(Q31), b in residue(Q31)) {
        let br = BarrettReducer::new(Q31);
        prop_assert_eq!(br.mul_mod(a, b), modops::mul_mod(a, b, Q31));
    }

    #[test]
    fn montgomery_strict_equals_reference(a in residue(Q28), b in residue(Q28)) {
        let m = Montgomery::new(Q28);
        prop_assert_eq!(m.mul_strict(a, m.to_mont(b)), modops::mul_mod(a, b, Q28));
    }

    #[test]
    fn montgomery_alg1_equals_fast_path(z in any::<u64>()) {
        let m = Montgomery::new(Q28);
        let z = z as u128 % ((Q28 as u128) << 32);
        prop_assert_eq!(m.reduce(z), m.reduce_alg1(z));
    }

    #[test]
    fn montgomery_lazy_in_range(a in residue(Q28), b in residue(Q28)) {
        let m = Montgomery::new(Q28);
        let lazy = m.mul(a, m.to_mont(b));
        prop_assert!(lazy < 2 * Q28);
        prop_assert_eq!(lazy % Q28, modops::mul_mod(a, b, Q28));
    }

    #[test]
    fn shoup_mul_equals_reference_for_any_word(a in any::<u64>(), w in residue(Q28), w31 in residue(Q31)) {
        prop_assert_eq!(shoup::mul(a, w, shoup::companion(w, Q28), Q28), modops::mul_mod(a, w, Q28));
        prop_assert_eq!(shoup::mul(a, w31, shoup::companion(w31, Q31), Q31), modops::mul_mod(a, w31, Q31));
    }

    #[test]
    fn shoup_lazy_accumulation_equals_reference(
        terms in vec(((any::<u64>(), any::<u64>()), residue(Q31)), 1..64),
    ) {
        // Each term multiplies a two-element slice of arbitrary words by
        // one constant; the accumulator stays below 2q throughout.
        let mut acc = [0u64; 2];
        let mut want = [0u64; 2];
        for ((x0, x1), w) in terms {
            let xs = [x0, x1];
            shoup::mul_acc_lazy_const(&xs, w, shoup::companion(w, Q31), &mut acc, Q31);
            prop_assert!(acc.iter().all(|&a| a < 2 * Q31));
            for (want, x) in want.iter_mut().zip(xs) {
                *want = modops::add_mod(*want, modops::mul_mod(x, w, Q31), Q31);
            }
        }
        shoup::reduce_strict_slice(&mut acc, Q31);
        prop_assert_eq!(acc, want);
    }

    #[test]
    fn modops_distributivity(a in residue(Q28), b in residue(Q28), c in residue(Q28)) {
        // (a + b) * c == a*c + b*c mod q
        let lhs = modops::mul_mod(modops::add_mod(a, b, Q28), c, Q28);
        let rhs = modops::add_mod(
            modops::mul_mod(a, c, Q28),
            modops::mul_mod(b, c, Q28),
            Q28,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn inv_mod_property(a in 1..Q28) {
        let inv = modops::inv_mod(a, Q28).unwrap();
        prop_assert_eq!(modops::mul_mod(a, inv, Q28), 1);
    }

    #[test]
    fn pow_mod_homomorphism(a in residue(Q28), e1 in 0u64..1000, e2 in 0u64..1000) {
        // a^(e1+e2) == a^e1 * a^e2
        let lhs = modops::pow_mod(a, e1 + e2, Q28);
        let rhs = modops::mul_mod(modops::pow_mod(a, e1, Q28), modops::pow_mod(a, e2, Q28), Q28);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn bigint_add_sub_roundtrip(a in any::<u128>(), b in any::<u128>()) {
        let ba = BigUint::from(a);
        let bb = BigUint::from(b);
        prop_assert_eq!(ba.add(&bb).sub(&bb), ba);
    }

    #[test]
    fn bigint_mul_commutes(a in any::<u128>(), b in any::<u128>()) {
        let ba = BigUint::from(a);
        let bb = BigUint::from(b);
        prop_assert_eq!(ba.mul(&bb), bb.mul(&ba));
    }

    #[test]
    fn bigint_div_rem_invariant(a in any::<u128>(), d in 1u64..) {
        let ba = BigUint::from(a);
        let (q, r) = ba.div_rem_u64(d);
        prop_assert!(r < d);
        prop_assert_eq!(q.mul_u64(d).add_u64(r), ba);
    }

    #[test]
    fn crt_roundtrip_u128(x in any::<u128>()) {
        let moduli = primes::ntt_prime_chain(28, 1 << 10, 5).unwrap();
        let basis = RnsBasis::new(moduli);
        let big = BigUint::from(x);
        // x < Q (5*28 = 140 bits > 128), so reconstruction is exact.
        let res = basis.residues_of(&big);
        prop_assert_eq!(basis.reconstruct(&res), big);
    }

    #[test]
    fn crt_signed_roundtrip(v in -(1i64 << 40)..(1i64 << 40)) {
        let moduli = primes::ntt_prime_chain(28, 1 << 10, 3).unwrap();
        let basis = RnsBasis::new(moduli);
        let res = basis.residues_of_i64(v);
        prop_assert_eq!(basis.reconstruct_signed_f64(&res), v as f64);
        prop_assert_eq!(basis.centered_f64(res.iter().copied()), v as f64);
    }
}
