//! NTT-throughput explorer: sweeps degrees, factorizations and TPU
//! generations through the compiled batched pipeline and verifies the
//! fused batch kernels bit-for-bit against the butterfly reference and
//! the sequential loop at small degrees. Also races the default host
//! engine (lazy radix-2) against the `u128 %` radix-2 butterfly
//! (bit-identical, timed head-to-head) — the functional path every
//! transform runs.
//!
//! Run with: `cargo run --release --example ntt_throughput`

use cross::core::mat::ntt3::{Ntt3Config, Ntt3Plan};
use cross::core::modred::ModRed;
use cross::core::plan;
use cross::math::primes;
use cross::poly::{CooleyTukeyNtt, NttEngine, NttTables};
use cross::tpu::{TpuGeneration, TpuSim};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // Functional verification: the TPU-compiled NTT matches radix-2,
    // and the fused batch kernel matches the sequential loop.
    let n = 1usize << 10;
    let q = primes::ntt_prime(28, n as u64, 0).unwrap();
    let tables = Arc::new(NttTables::new(n, q));
    let plan = Ntt3Plan::new(
        tables.clone(),
        Ntt3Config {
            r: 32,
            c: 32,
            modred: ModRed::Montgomery,
            embed_bitrev: true,
        },
    );
    let a: Vec<u64> = (0..n as u64).map(|i| (i * 37 + 5) % q).collect();
    let mut sim = TpuSim::new(TpuGeneration::V6e);
    let got = plan.forward_on_tpu(&mut sim, &a);
    let want = CooleyTukeyNtt::new(tables).forward(&a);
    assert_eq!(got, want, "compiled kernel == butterfly reference");
    let batch = 4usize;
    let ab: Vec<u64> = (0..(batch * n) as u64).map(|i| (i * 41 + 7) % q).collect();
    let fused = plan.forward_batch_on_tpu(&mut sim, &ab, batch);
    let looped: Vec<u64> = ab
        .chunks(n)
        .flat_map(|p| plan.forward_on_tpu(&mut sim, p))
        .collect();
    assert_eq!(fused, looped, "fused batch kernel == sequential loop");
    assert_eq!(plan.inverse_batch_on_tpu(&mut sim, &fused, batch), ab);
    println!("N=2^10: compiled TPU NTT is bit-identical to the radix-2 reference;");
    println!("the fused batch-{batch} kernel is bit-identical to the sequential loop\n");

    // Host engines: the default lazy radix-2 engine (what every functional
    // transform in the repo now runs through) vs the radix-2 butterfly,
    // bit-identical and timed head-to-head.
    println!("host engines (functional CPU path):");
    for logn in [10u32, 12, 14] {
        let n = 1usize << logn;
        let q = primes::ntt_prime(28, n as u64, 0).unwrap();
        let tables = Arc::new(NttTables::new(n, q));
        let host = plan::default_host_engine(tables.clone());
        let ct = CooleyTukeyNtt::new(tables);
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 37 + 5) % q).collect();
        assert_eq!(host.forward(&a), ct.forward(&a), "engines bit-identical");
        let reps = (1 << 22) / n;
        let time = |f: &dyn Fn() -> Vec<u64>| {
            let t0 = Instant::now();
            for _ in 0..reps {
                std::hint::black_box(f());
            }
            t0.elapsed().as_secs_f64() / reps as f64 * 1e6
        };
        let (ct_us, host_us) = (time(&|| ct.forward(&a)), time(&|| host.forward(&a)));
        println!(
            "  N=2^{logn}: {} {host_us:.1} us vs radix2 {ct_us:.1} us ({:.2}x)",
            host.name(),
            ct_us / host_us
        );
    }
    println!();

    // Throughput sweep: each degree compiles its standalone plan once,
    // then every generation charges the real fused batch kernel.
    println!(
        "{:>7} {:>10} | {:>10} {:>10} {:>10} {:>10}",
        "degree", "(R,C)", "v4", "v5e", "v5p", "v6e"
    );
    for logn in [12u32, 13, 14, 16] {
        let n = 1usize << logn;
        let (r, c) = plan::standalone_ntt_rc(n);
        let q = primes::ntt_prime(28, n as u64, 0).unwrap();
        let plan = Ntt3Plan::new(
            Arc::new(NttTables::new(n, q)),
            Ntt3Config {
                r,
                c,
                modred: ModRed::Montgomery,
                embed_bitrev: true,
            },
        );
        let mut row = format!("{:>7} {:>10} |", format!("2^{logn}"), format!("({r},{c})"));
        for gen in TpuGeneration::ALL {
            let mut best = 0.0f64;
            for batch in [1usize, 8, 32, 128] {
                let mut sim = TpuSim::new(gen);
                sim.begin_kernel("ntt");
                plan.charge_forward_batch(&mut sim, batch);
                let rep = sim.end_kernel();
                best = best.max(batch as f64 / rep.latency_s);
            }
            row += &format!(" {:>10.0}", best / 1e3);
        }
        println!("{row}   (KNTT/s per tensor core, best batch)");
    }
    println!("\nHigher generations win throughout; throughput decays ~N^1.5 with degree.");
}
