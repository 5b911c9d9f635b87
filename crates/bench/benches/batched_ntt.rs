//! Criterion: wall-clock of the fused batched MAT 3-step NTT vs the
//! sequential per-polynomial loop at `N = 4096, batch = 8` — the
//! Fig. 11b mechanism measured on the host. The fused path runs each
//! matmul once over the `C·batch` streamed dimension and fans row
//! blocks out over the `par` worker pool; results are bit-identical to
//! the loop (asserted here before timing). `host_fused` times the same
//! shape through `PolyBatch::to_evaluation`, the fan-out every domain
//! conversion runs.

use criterion::{criterion_group, criterion_main, Criterion};
use cross_core::mat::ntt3::{Ntt3Config, Ntt3Plan};
use cross_core::modred::ModRed;
use cross_math::primes;
use cross_poly::ring::Domain;
use cross_poly::{host_ntt, NttTables, PolyBatch, RnsContext};
use std::sync::Arc;

fn bench_batched_ntt(c: &mut Criterion) {
    let mut g = c.benchmark_group("batched_ntt");
    let logn = 12u32;
    let n = 1usize << logn;
    let batch = 8usize;
    let q = primes::ntt_prime(28, n as u64, 0).unwrap();
    let tables = Arc::new(NttTables::new(n, q));
    let a: Vec<u64> = (0..(batch * n) as u64)
        .map(|i| (i * 2654435761 + 3) % q)
        .collect();

    let (r, cc) = (64usize, 64usize);
    let plan = Ntt3Plan::new(
        tables.clone(),
        Ntt3Config {
            r,
            c: cc,
            modred: ModRed::Montgomery,
            embed_bitrev: true,
        },
    );
    let looped: Vec<u64> = a
        .chunks(n)
        .flat_map(|p| plan.forward_reference(p))
        .collect();
    assert_eq!(
        plan.forward_batch_reference(&a, batch),
        looped,
        "fused == sequential (MAT 3-step)"
    );
    g.bench_function(format!("mat3_sequential/{n}x{batch}"), |b| {
        b.iter(|| {
            a.chunks(n)
                .map(|p| plan.forward_reference(p))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function(format!("mat3_fused/{n}x{batch}"), |b| {
        b.iter(|| plan.forward_batch_reference(&a, batch))
    });

    // The host NTT at the same shape, as the product runs it: a
    // one-limb batch of 8 through `PolyBatch::to_evaluation`. Gated in
    // bench_diff: `host_fused` must beat `mat3_fused` (the fastest
    // matmul-decomposed path).
    let ctx = Arc::new(RnsContext::with_tables(n, vec![tables.clone()]));
    let coeffs = PolyBatch::from_limbs(ctx, vec![a.clone()], Domain::Coefficient);
    let to_evaluation = || {
        let mut pb = coeffs.clone();
        pb.to_evaluation();
        pb
    };
    let looped: Vec<u64> = a
        .chunks(n)
        .flat_map(|p| {
            let mut x = p.to_vec();
            host_ntt::forward_inplace(&mut x, &tables);
            x
        })
        .collect();
    assert_eq!(to_evaluation().limbs()[0], looped, "fused == sequential");
    g.bench_function(format!("host_fused/{n}x{batch}"), |b| b.iter(to_evaluation));
    g.finish();
}

criterion_group!(benches, bench_batched_ntt);
criterion_main!(benches);
