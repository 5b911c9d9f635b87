//! Criterion: wall-clock of the fused batched NTT vs the sequential
//! per-polynomial loop at `N = 4096, batch = 8` — the Fig. 11b
//! mechanism measured on the host. The fused path runs each matmul
//! once over the `C·batch` streamed dimension and fans row blocks out
//! over the `par` worker pool; results are bit-identical to the loop
//! (asserted here before timing).

use criterion::{criterion_group, criterion_main, Criterion};
use cross_core::mat::ntt3::{Ntt3Config, Ntt3Plan};
use cross_core::modred::ModRed;
use cross_math::primes;
use cross_poly::{FourStepNtt, HostNtt, NttEngine, NttTables};
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
    let fs = FourStepNtt::new(tables.clone(), r, cc);
    let looped: Vec<u64> = a.chunks(n).flat_map(|p| fs.forward(p)).collect();
    assert_eq!(fs.forward_batch(&a, batch), looped, "fused == sequential");
    g.bench_function(format!("four_step_sequential/{n}x{batch}"), |b| {
        b.iter(|| a.chunks(n).map(|p| fs.forward(p)).collect::<Vec<_>>())
    });
    g.bench_function(format!("four_step_fused/{n}x{batch}"), |b| {
        b.iter(|| fs.forward_batch(&a, batch))
    });

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

    // The host engine at the same shape — the default functional
    // executor. Gated in bench_diff: `host_fused` must beat
    // `mat3_fused` (the fastest matmul-decomposed path).
    let host = HostNtt::new(tables.clone());
    let looped: Vec<u64> = a.chunks(n).flat_map(|p| host.forward(p)).collect();
    assert_eq!(host.forward_batch(&a, batch), looped, "fused == sequential");
    g.bench_function(format!("host_fused/{n}x{batch}"), |b| {
        b.iter(|| host.forward_batch(&a, batch))
    });
    g.finish();
}

criterion_group!(benches, bench_batched_ntt);
criterion_main!(benches);
