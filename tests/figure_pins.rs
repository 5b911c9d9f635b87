//! What the figure bins print and no other suite pins: Fig. 13a's
//! VecModMul cells, Fig. 5's efficiency ranking, and the
//! efficiency-ratio arithmetic behind Tab. VIII's energy columns.
//!
//! Like `model_golden`, the Fig. 13a cells are `f64::to_bits`
//! constants, so a refactor of how a modular-reduction strategy is
//! charged must leave them green unedited.

use cross_baselines::devices::FIG5_DEVICES;
use cross_bench::fig13_vecmodmul_us;
use cross_ckks::params::ParamSet;
use cross_core::ModRed;
use cross_tpu::power::{efficiency_ratio, EfficiencyPoint};

/// Fig. 13a at Set D, batch 64 (the row the paper quotes), in µs,
/// recorded from the simulator's per-strategy VecModMul charges before
/// they became `ModRed`'s one charge function.
const FIG13A_SET_D_BATCH64: [(ModRed, u64); 4] = [
    (ModRed::Montgomery, 0x4090ca2ad3e920c0), // 1.074541824e3
    (ModRed::Barrett, 0x40983f0aa98f5171),    // 1.5517604124444445e3
    (ModRed::Shoup, 0x409b0ade99ada3b3),      // 1.730717383111111e3
    (ModRed::BatLazy, 0x40ee68ba6ce3582a),    // 6.2277825792e4
];

#[test]
fn fig13a_vecmodmul_cells_hold_their_bits() {
    let p = ParamSet::D.params();
    for (strategy, bits) in FIG13A_SET_D_BATCH64 {
        let got = fig13_vecmodmul_us(strategy, &p, 64);
        assert_eq!(
            got.to_bits(),
            bits,
            "{strategy:?}: {got:e} µs, pinned {:e}",
            f64::from_bits(bits)
        );
    }
}

/// The paper's Fig. 13a ordering, Montgomery < Barrett < Shoup <
/// BAT-lazy, at every batch the bin prints.
#[test]
fn fig13a_ordering_holds_at_every_batch() {
    let p = ParamSet::D.params();
    for batch in [1usize, 2, 4, 8, 16, 32, 64] {
        let lat: Vec<f64> = FIG13A_SET_D_BATCH64
            .iter()
            .map(|&(s, _)| fig13_vecmodmul_us(s, &p, batch))
            .collect();
        assert!(
            lat.windows(2).all(|w| w[0] < w[1]),
            "batch {batch}: {lat:?}"
        );
    }
}

/// Fig. 5's rows by TOPs/W, best first, with the value the bin prints.
#[test]
fn fig5_ranking_is_pinned() {
    let mut rows = FIG5_DEVICES.to_vec();
    rows.sort_by(|a, b| (b.3 / b.2).total_cmp(&(a.3 / a.2)));
    let got: Vec<(&str, String)> = rows
        .iter()
        .map(|&(name, _, watts, tops)| (name, format!("{:.2}", tops / watts)))
        .collect();
    let want = [
        ("TPU v6e", "6.12"),
        ("NVIDIA B100", "5.00"),
        ("NVIDIA GB200", "4.17"),
        ("AMD MI300X", "3.49"),
        ("NVIDIA H100", "2.83"),
        ("TPU v5e", "2.19"),
        ("NVIDIA L40s", "2.09"),
        ("NVIDIA A100", "1.56"),
        ("NVIDIA RTX 4090", "1.47"),
        ("TPUv4", "1.43"),
        ("AMD MI250X", "0.68"),
        ("AMD MI100", "0.61"),
        ("AMD Alveo U280", "0.15"),
    ];
    let want: Vec<(&str, String)> = want.iter().map(|&(n, v)| (n, v.to_string())).collect();
    assert_eq!(got, want);
}

/// Different watts, latencies and unit counts on each side:
/// `(4 / 1 ms / 300 W) / (1 / 2 ms / 400 W) = 32/3`, and the ratio
/// inverts when the sides swap.
#[test]
fn efficiency_ratio_of_unequal_devices() {
    let ours = EfficiencyPoint::from_latency(300.0, 1e-3, 4);
    let base = EfficiencyPoint::from_latency(400.0, 2e-3, 1);
    let r = efficiency_ratio(&ours, &base);
    assert!((r - 32.0 / 3.0).abs() < 1e-12, "ratio {r}");
    let back = efficiency_ratio(&base, &ours);
    assert!((back - 3.0 / 32.0).abs() < 1e-15, "inverse {back}");
}
