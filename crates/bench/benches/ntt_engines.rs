//! Criterion: host-side throughput of one forward NTT — the radix-2
//! butterflies (`radix2_ct`, `cross_poly::ntt::forward_inplace`) and
//! the MAT 3-step reference (`mat_3step_ref`, the CPU row of Tab. VIII:
//! "CROSS for CPU" runs the O(N√N) layout-invariant schedule) —
//! against `host`, what every domain conversion runs
//! (`cross_poly::host_ntt::forward_inplace`, the Shoup/lazy radix-2
//! engine). `host` is gated in `bench_diff`: at every degree timed here
//! (Set-A/B sizes and the toy degree) it must read within 1.05x of each
//! alternative.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cross_core::mat::ntt3::{Ntt3Config, Ntt3Plan};
use cross_core::modred::ModRed;
use cross_math::primes;
use cross_poly::{host_ntt, ntt, NttTables};
use std::sync::Arc;

fn bench_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("ntt_engines");
    for logn in [10u32, 12, 13] {
        let n = 1usize << logn;
        let q = primes::ntt_prime(28, n as u64, 0).unwrap();
        let tables = Arc::new(NttTables::new(n, q));
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761 + 1) % q).collect();
        // Each timed call transforms a fresh copy, as the 3-step
        // reference allocates its output.
        let forward = |f: fn(&mut [u64], &NttTables), a: &[u64]| {
            let mut x = a.to_vec();
            f(&mut x, &tables);
            x
        };
        g.bench_with_input(BenchmarkId::new("radix2_ct", logn), &a, |b, a| {
            b.iter(|| forward(ntt::forward_inplace, a))
        });
        // Same bit-reversed output contract: pin bit-identity before
        // timing, so the gated speed pairs compare equal work.
        assert_eq!(
            forward(host_ntt::forward_inplace, &a),
            forward(ntt::forward_inplace, &a),
            "host == radix2"
        );
        g.bench_with_input(BenchmarkId::new("host", logn), &a, |b, a| {
            b.iter(|| forward(host_ntt::forward_inplace, a))
        });
        let r = 1usize << (logn / 2);
        let plan = Ntt3Plan::new(
            tables.clone(),
            Ntt3Config {
                r,
                c: n / r,
                modred: ModRed::Montgomery,
                embed_bitrev: true,
            },
        );
        g.bench_with_input(BenchmarkId::new("mat_3step_ref", logn), &a, |b, a| {
            b.iter(|| plan.forward_reference(a))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
