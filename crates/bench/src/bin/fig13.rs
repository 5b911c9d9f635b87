//! Fig. 13: modular-reduction ablation (Barrett / Montgomery / Shoup /
//! BAT-lazy) on VecModMul and NTT across batch sizes (one v6e TC,
//! Set D).

use cross_bench::{banner, fig13_vecmodmul_us, us};
use cross_ckks::params::ParamSet;
use cross_core::modred::ModRed;
use cross_tpu::{Category, TpuGeneration, TpuSim};

/// NTT latency under a strategy (BAT matmuls for Barrett/Montgomery,
/// VPU chains for Shoup, matmul+lazy for BatLazy).
fn ntt_us(strategy: ModRed, n: usize, batch: usize) -> f64 {
    let (r, c) = cross_core::plan::standalone_ntt_rc(n);
    let k = 4usize;
    let mut sim = TpuSim::new(TpuGeneration::V6e);
    sim.begin_kernel("ntt");
    match strategy {
        ModRed::Shoup => {
            // no BAT: both matmul steps become VPU mat-vec chains.
            sim.charge_vpu(
                n * batch,
                r as u32 * (strategy.vpu_ops() + 2),
                Category::NttMatMul,
                "vpu chain",
            );
            sim.charge_vpu(
                n * batch,
                strategy.vpu_ops(),
                Category::VecModOps,
                "twiddle",
            );
            sim.charge_vpu(
                n * batch,
                c as u32 * (strategy.vpu_ops() + 2),
                Category::NttMatMul,
                "vpu chain",
            );
        }
        _ => {
            sim.charge_vpu(n * batch, 2 * k as u32, Category::TypeConversion, "chunks");
            sim.charge_matmul_u8(k * r, k * r, c * batch, Category::NttMatMul);
            sim.charge_vpu(
                n * batch,
                k as u32 + strategy.vpu_ops(),
                Category::VecModOps,
                "merge+reduce",
            );
            sim.charge_vpu(
                n * batch,
                strategy.vpu_ops(),
                Category::VecModOps,
                "twiddle",
            );
            sim.charge_vpu(n * batch, 2 * k as u32, Category::TypeConversion, "chunks");
            sim.charge_matmul_u8(r * batch, k * c, k * c, Category::NttMatMul);
            sim.charge_vpu(
                n * batch,
                k as u32 + strategy.vpu_ops(),
                Category::VecModOps,
                "merge+reduce",
            );
            if strategy == ModRed::BatLazy {
                // additional matmul-based reductions after each step
                sim.charge_matmul_u8(n * batch, 8, 4, Category::VecModOps);
                sim.charge_matmul_u8(n * batch, 8, 4, Category::VecModOps);
            }
        }
    }
    sim.end_kernel().latency_us()
}

fn main() {
    let p = ParamSet::D.params();
    banner("Fig. 13a: ciphertext VecModMul latency (us) vs batch, Set D");
    println!(
        "{:>6} | {:>10} {:>10} {:>10} {:>10}",
        "batch", "Barrett", "BAT-lazy", "Montgomery", "Shoup"
    );
    for batch in [1usize, 2, 4, 8, 16, 32, 64] {
        println!(
            "{:>6} | {:>10} {:>10} {:>10} {:>10}",
            batch,
            us(fig13_vecmodmul_us(ModRed::Barrett, &p, batch)),
            us(fig13_vecmodmul_us(ModRed::BatLazy, &p, batch)),
            us(fig13_vecmodmul_us(ModRed::Montgomery, &p, batch)),
            us(fig13_vecmodmul_us(ModRed::Shoup, &p, batch)),
        );
    }
    println!("paper at batch 64: Barrett 672 | BAT-lazy 6190 | Montgomery 472 | Shoup 763");

    banner("Fig. 13b: NTT latency (us, per batch of 1) vs batch, Set D");
    println!(
        "{:>6} | {:>10} {:>10} {:>10} {:>10}",
        "batch", "Barrett", "Montgomery", "Shoup", "BAT-lazy"
    );
    for batch in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        println!(
            "{:>6} | {:>10} {:>10} {:>10} {:>10}",
            batch,
            us(ntt_us(ModRed::Barrett, p.n, batch)),
            us(ntt_us(ModRed::Montgomery, p.n, batch)),
            us(ntt_us(ModRed::Shoup, p.n, batch)),
            us(ntt_us(ModRed::BatLazy, p.n, batch)),
        );
    }
    let m = fig13_vecmodmul_us(ModRed::Montgomery, &p, 64);
    let b = fig13_vecmodmul_us(ModRed::Barrett, &p, 64);
    println!(
        "\nTakeaway: Montgomery wins (measured Barrett/Montgomery = {:.2}x,",
        b / m
    );
    println!("paper geomean 1.42x); Shoup's 64-bit products lose on the VPU and");
    println!("BAT-lazy's K=4 reduction dim strands the MXU — same ordering as Fig. 13.");
}
