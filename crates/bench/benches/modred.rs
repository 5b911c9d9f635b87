//! Criterion: host-side modular-reduction micro-benchmarks (the scalar
//! engines under the Fig. 13 ablation).

use criterion::{criterion_group, criterion_main, Criterion};
use cross_core::bat::lazy::LazyReducer;
use cross_math::{shoup, BarrettReducer, Montgomery};

const Q: u64 = 268_369_921;

fn bench_modred(c: &mut Criterion) {
    let mut g = c.benchmark_group("modred_scalar");
    let xs: Vec<u64> = (0..4096u64).map(|i| (i * 2654435761) % Q).collect();
    let w = 123_456_789 % Q;

    let br = BarrettReducer::new(Q);
    g.bench_function("barrett", |b| {
        b.iter(|| xs.iter().map(|&x| br.mul_mod(x, w)).sum::<u64>())
    });

    let mont = Montgomery::new(Q);
    let wm = mont.to_mont(w);
    g.bench_function("montgomery", |b| {
        b.iter(|| xs.iter().map(|&x| mont.mul_strict(x, wm)).sum::<u64>())
    });

    let ws = shoup::companion(w, Q);
    g.bench_function("shoup", |b| {
        b.iter(|| xs.iter().map(|&x| shoup::mul(x, w, ws, Q)).sum::<u64>())
    });

    let lazy = LazyReducer::new(Q, 8);
    g.bench_function("bat_lazy", |b| {
        b.iter(|| xs.iter().map(|&x| lazy.reduce(x * w)).sum::<u64>())
    });

    g.bench_function("u128_oracle", |b| {
        b.iter(|| {
            xs.iter()
                .map(|&x| cross_math::modops::mul_mod(x, w, Q))
                .sum::<u64>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_modred);
criterion_main!(benches);
