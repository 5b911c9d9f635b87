//! Property-based tests for BAT and MAT invariants.

use cross_core::bat::{chunk, conv, lazy::LazyReducer, matmul::BatMatMul, scalar};
use cross_core::bconv::BconvKernel;
use cross_core::mat::ntt3::{Ntt3Config, Ntt3Plan};
use cross_core::modred::ModRed;
use cross_math::rns::RnsBasis;
use cross_math::{modops, primes};
use cross_poly::{ntt, NttTables};
use proptest::prelude::*;
use std::sync::Arc;

const Q: u64 = 268_369_921;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chunk_roundtrip(a in 0u64..(1 << 32)) {
        let c = chunk::decompose(a, 4, 8);
        prop_assert_eq!(chunk::merge(&c, 8), a);
    }

    #[test]
    fn scalar_bat_equals_reference(a in 0..Q, b in 0..Q) {
        prop_assert_eq!(
            scalar::hp_scalar_mul(a, b, 4, 8, Q),
            modops::mul_mod(a, b, Q)
        );
    }

    #[test]
    fn toeplitz_and_direct_compile_agree(a in 0..Q, b in 0..Q) {
        let t = scalar::offline_compile_toeplitz(a, 4, 8, Q);
        let d = scalar::direct_scalar_bat(a, 4, 8, Q);
        prop_assert!(scalar::column_invariant_holds(&t, a, 8, Q));
        prop_assert!(scalar::column_invariant_holds(&d, a, 8, Q));
        prop_assert_eq!(
            scalar::hp_scalar_mul_lazy(&t, b, 4, 8) % Q,
            scalar::hp_scalar_mul_lazy(&d, b, 4, 8) % Q
        );
    }

    #[test]
    fn fallback_conv_equals_reference(a in 0..Q, b in 0..Q) {
        prop_assert_eq!(conv::fallback_mod_mul(a, b, Q, 8), modops::mul_mod(a, b, Q));
    }

    #[test]
    fn lazy_reduction_correct(z in any::<u64>()) {
        let r = LazyReducer::new(Q, 8);
        prop_assert_eq!(r.reduce(z), z % Q);
        prop_assert!(r.reduce_lazy(z) <= u32::MAX as u64);
    }

    #[test]
    fn bat_matmul_equals_oracle(seed in any::<u64>()) {
        let (h, v, w) = (4usize, 6usize, 3usize);
        let a: Vec<u64> = (0..h * v).map(|i| (seed.wrapping_mul(i as u64 + 1)) % Q).collect();
        let b: Vec<u64> = (0..v * w).map(|i| (seed.wrapping_add(i as u64 * 7919)) % Q).collect();
        let bm = BatMatMul::compile(&a, h, v, Q, 8);
        prop_assert_eq!(
            bm.execute_reference(&b, w),
            cross_core::bat::matmul::mod_matmul_reference(&a, &b, h, v, w, Q)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ntt3_plan_matches_naive(seed in any::<u64>(), embed in any::<bool>()) {
        let n = 1usize << 6;
        let q = primes::ntt_prime(28, n as u64, 0).unwrap();
        let tables = Arc::new(NttTables::new(n, q));
        let plan = Ntt3Plan::new(
            tables.clone(),
            Ntt3Config { r: 8, c: 8, modred: ModRed::Montgomery, embed_bitrev: embed },
        );
        let a: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_mul(i + 3) % q).collect();
        let fwd = plan.forward_reference(&a);
        // Whatever the layout, the multiset of values equals the naive
        // transform's (it is a permutation of it)...
        let mut got = fwd.clone();
        let mut want = ntt::naive_forward(&a, &tables);
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
        // ...and the inverse plan exactly restores the input.
        prop_assert_eq!(plan.inverse_reference(&fwd), a);
    }

    #[test]
    fn ntt3_linearity(seed in any::<u64>()) {
        let n = 1usize << 6;
        let q = primes::ntt_prime(28, n as u64, 0).unwrap();
        let tables = Arc::new(NttTables::new(n, q));
        let plan = Ntt3Plan::new(
            tables,
            Ntt3Config { r: 8, c: 8, modred: ModRed::Montgomery, embed_bitrev: true },
        );
        let a: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_mul(i + 1) % q).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| seed.wrapping_add(i * 31) % q).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| modops::add_mod(x, y, q)).collect();
        let fa = plan.forward_reference(&a);
        let fb = plan.forward_reference(&b);
        let fsum = plan.forward_reference(&sum);
        for k in 0..n {
            prop_assert_eq!(modops::add_mod(fa[k], fb[k], q), fsum[k]);
        }
    }
}

/// The host BConv kernel (row-blocked, accumulate-then-reduce) against
/// both oracles on one shape: `step2_reference` fed an independently
/// computed step 1, and `convert_reference`.
fn bconv_kernel_matches_oracles(bits: u32, l: usize, l_out: usize, batch: usize, seed: u64) {
    // 1.5 and 2.5 row blocks at batch 3 and 5, half a block at 1.
    let n = 128usize;
    let chain = primes::ntt_prime_chain(bits, n as u64, l + l_out).unwrap();
    let table = RnsBasis::new(chain[..l].to_vec()).bconv_table(&chain[l..]);
    let kernel = BconvKernel::compile(&table, n, ModRed::Montgomery);
    let mut state = seed | 1;
    let limbs: Vec<Vec<u64>> = chain[..l]
        .iter()
        .map(|&q| {
            (0..n * batch)
                .map(|r| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // the extremes too: they are what can overflow
                    match r % 61 {
                        0 => q - 1,
                        1 => 0,
                        _ => (state >> 16) % q,
                    }
                })
                .collect()
        })
        .collect();
    let views: Vec<&[u64]> = limbs.iter().map(Vec::as_slice).collect();
    let got = kernel.convert_slices(&views);
    let step1: Vec<Vec<u64>> = limbs
        .iter()
        .zip(&chain)
        .zip(table.qhat_inv())
        .map(|((limb, &q), &w)| limb.iter().map(|&x| modops::mul_mod(x, w, q)).collect())
        .collect();
    let what = format!("bits {bits} l {l} l_out {l_out} batch {batch}");
    assert_eq!(
        got,
        kernel.step2_reference(&step1),
        "{what}: step2_reference"
    );
    assert_eq!(
        got,
        kernel.convert_reference(&limbs),
        "{what}: convert_reference"
    );
    for (limb, &p) in got.iter().zip(&chain[l..]) {
        assert!(limb.iter().all(|&x| x < p), "{what}: canonical output");
    }
}

/// The corners of the shape space at every width: one source limb
/// (nothing to accumulate), Set D's 17-limb digits and 23-limb
/// complements — at 31 bits four products fit the accumulator, so 17
/// source limbs take five accumulate-reduce rounds.
#[test]
fn bconv_kernel_matches_oracles_at_the_corners() {
    for bits in [20u32, 28, 31] {
        for (l, l_out) in [(1usize, 1usize), (1, 23), (17, 1), (17, 23), (4, 5), (5, 4)] {
            for batch in [1usize, 3] {
                bconv_kernel_matches_oracles(bits, l, l_out, batch, 0xB0C0 + l as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bconv_kernel_matches_oracles_random(
        seed in any::<u64>(),
        bits_idx in 0usize..3,
        l in 1usize..=17,
        l_out in 1usize..=23,
        batch_idx in 0usize..3,
    ) {
        bconv_kernel_matches_oracles(
            [20u32, 28, 31][bits_idx],
            l,
            l_out,
            [1usize, 3, 5][batch_idx],
            seed,
        );
    }
}
