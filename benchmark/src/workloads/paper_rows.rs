//! Every published CROSS row of Tab. V–X and the §V-D figures, charged
//! through the public `charge_*` entry points the table bins use, next
//! to the value the paper prints.
//!
//! All of these rows were visible while the model was tuned, so the
//! errors computed from them are in-sample.

use super::graphs::Program;
use cross_baselines::devices::{
    BOOTSTRAP_BASELINES, NTT_BASELINES, PAPER_CROSS_V6E8_SET_D_US, PAPER_HELR_MS_PER_ITER,
    PAPER_MNIST_MS_PER_IMAGE, TABLE10_ROWS, TABLE5_ROWS, TABLE6_ROWS,
};
use cross_baselines::gpu_style::{self, SparseMatMul};
use cross_ckks::costs::{self, ExecMode};
use cross_ckks::ParamSet;
use cross_core::bat::matmul::BatMatMul;
use cross_core::modred::ModRed;
use cross_sched::{cost_graph, HeOpKind, OpGraph, Schedule, Scheduler};
use cross_tpu::{Category, PodKernelReport, PodSim, TpuGeneration, TpuSim};

/// The TPU-VM setups the evaluation sweeps (paper Tab. IV).
pub const VM_SETUPS: [(TpuGeneration, u32, &str); 5] = [
    (TpuGeneration::V4, 8, "v4-8"),
    (TpuGeneration::V5e, 4, "v5e-4"),
    (TpuGeneration::V5p, 8, "v5p-8"),
    (TpuGeneration::V6e, 4, "v6e-4"),
    (TpuGeneration::V6e, 8, "v6e-8"),
];

/// The Tab. VII column setups, in the order of `NTT_BASELINES[2..]`.
const NTT_SETUPS: [(TpuGeneration, u32); 4] = [
    (TpuGeneration::V4, 4),
    (TpuGeneration::V5e, 4),
    (TpuGeneration::V5p, 4),
    (TpuGeneration::V6e, 8),
];

/// Which published table a row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    Tab5,
    Tab6,
    Tab7,
    Tab8,
    Tab9,
    Tab10,
    Workloads,
}

impl Table {
    pub const ALL: [Table; 7] = [
        Table::Tab5,
        Table::Tab6,
        Table::Tab7,
        Table::Tab8,
        Table::Tab9,
        Table::Tab10,
        Table::Workloads,
    ];

    /// The per-table error metric.
    pub fn metric(self) -> &'static str {
        match self {
            Table::Tab5 => "baselines.err_tab5_pct",
            Table::Tab6 => "baselines.err_tab6_pct",
            Table::Tab7 => "baselines.err_tab7_pct",
            Table::Tab8 => "baselines.err_tab8_pct",
            Table::Tab9 => "baselines.err_tab9_pct",
            Table::Tab10 => "baselines.err_tab10_pct",
            Table::Workloads => "baselines.err_workloads_pct",
        }
    }
}

/// One published value and its modeled counterpart, in the published
/// unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub table: Table,
    pub published: f64,
    pub modeled: f64,
}

impl Row {
    /// `|modeled − published| / published`, in percent.
    pub fn err_pct(&self) -> f64 {
        (self.modeled - self.published).abs() / self.published * 100.0
    }
}

/// What charging every row yields.
pub struct Charged {
    pub rows: Vec<Row>,
    /// Limb-parallel critical-path reports of HE-Add, HE-Mult, Rescale
    /// and Rotate on v6e-8, Set D, unfused lowering.
    pub v6e8_backbone: [PodKernelReport; 4],
    /// Critical-path bootstrap milliseconds on v6e-8.
    pub v6e8_bootstrap_ms: f64,
    /// Trace entries the simulators recorded: the simulated events.
    pub charges: u64,
}

fn sim_charges(sim: &TpuSim) -> u64 {
    sim.trace().entries().len() as u64
}

fn pod_charges(pod: &PodSim) -> u64 {
    (0..pod.num_cores())
        .map(|i| sim_charges(pod.core(i)))
        .sum::<u64>()
        + pod.comm_trace().entries().len() as u64
}

/// Runs one kernel on a fresh v6e or v4 core and returns its latency
/// in microseconds.
fn kernel_us(gen: TpuGeneration, charges: &mut u64, body: impl FnOnce(&mut TpuSim)) -> f64 {
    let mut sim = TpuSim::new(gen);
    sim.begin_kernel("row");
    body(&mut sim);
    let us = sim.end_kernel().latency_us();
    *charges += sim_charges(&sim);
    us
}

/// Tab. V: sparse-Toeplitz baseline and BAT ModMatMul on one v6e core.
fn table5(rows: &mut Vec<Row>, charges: &mut u64) {
    let k = 4;
    for &(h, v, w, paper_base, paper_bat) in &TABLE5_ROWS {
        let base = kernel_us(TpuGeneration::V6e, charges, |s| {
            SparseMatMul::charge_shape(s, h, v, w, k, Category::NttMatMul);
            s.dma_in(((2 * k - 1) * h * k * v) as f64, "sparse params");
        });
        let bat = kernel_us(TpuGeneration::V6e, charges, |s| {
            BatMatMul::charge_shape(s, h, v, w, k, Category::NttMatMul);
            s.dma_in((k * h * k * v) as f64, "bat params");
        });
        for (published, modeled) in [(paper_base, base), (paper_bat, bat)] {
            rows.push(Row {
                table: Table::Tab5,
                published,
                modeled,
            });
        }
    }
}

/// Tab. VI: BConv step 2 on the VPU and as a BAT matmul, N = 65536.
fn table6(rows: &mut Vec<Row>, charges: &mut u64) {
    let n = 65536;
    for &(l_in, l_out, paper_base, paper_bat) in &TABLE6_ROWS {
        let base = kernel_us(TpuGeneration::V6e, charges, |s| {
            let mont = ModRed::Montgomery.vpu_ops();
            s.charge_vpu(n * l_in, mont, Category::VecModOps, "step1");
            s.charge_vpu(
                n * l_out,
                l_in as u32 * (mont + 2),
                Category::VecModOps,
                "hp modmatmul on vpu",
            );
        });
        let bat = kernel_us(TpuGeneration::V6e, charges, |s| {
            costs::charge_bconv(s, n, l_in, l_out, 1)
        });
        for (published, modeled) in [(paper_base, base), (paper_bat, bat)] {
            rows.push(Row {
                table: Table::Tab6,
                published,
                modeled,
            });
        }
    }
}

/// Tab. VII: best-batch standalone NTT throughput (KNTT/s) per setup.
fn table7(rows: &mut Vec<Row>, charges: &mut u64) {
    for (&(gen, cores), published) in NTT_SETUPS.iter().zip(&NTT_BASELINES[2..]) {
        for (i, logn) in [12u32, 13, 14].into_iter().enumerate() {
            let n = 1usize << logn;
            let (r, c) = cross_core::plan::standalone_ntt_rc(n);
            let mut best = 0.0f64;
            for batch in [1usize, 2, 4, 8, 16, 32, 64, 128] {
                let mut pod = PodSim::new(gen, 1);
                let sim = pod.core_mut(0);
                sim.begin_kernel("ntt");
                costs::charge_ntt_params(sim, r, c);
                sim.dma_in((batch * n * 4) as f64, "in");
                sim.dma_out((batch * n * 4) as f64, "out");
                costs::charge_ntt_batch(sim, r, c, batch, Category::NttMatMul);
                sim.spill_check(
                    (batch * n * 48) as f64 + (16 * r * r + 16 * c * c) as f64,
                    1,
                );
                let wall = sim.end_kernel().latency_s;
                *charges += pod_charges(&pod);
                best = best.max((cores as usize * batch) as f64 / wall / 1e3);
            }
            rows.push(Row {
                table: Table::Tab7,
                published: published.kntt_per_s[i],
                modeled: best,
            });
        }
    }
}

/// Tab. VIII: the four backbone operators at Set D on every setup; the
/// paper publishes the v6e-8 amortized row.
fn table8(rows: &mut Vec<Row>, charges: &mut u64) -> [PodKernelReport; 4] {
    let params = ParamSet::D.params();
    let mut v6e8 = None;
    for (gen, cores, label) in VM_SETUPS {
        let mut pod = PodSim::new(gen, cores);
        let ops = costs::backbone_latencies_pod(&mut pod, &params, ExecMode::Unfused);
        *charges += pod_charges(&pod);
        if label == "v6e-8" {
            for (op, published) in ops.iter().zip(PAPER_CROSS_V6E8_SET_D_US) {
                rows.push(Row {
                    table: Table::Tab8,
                    published,
                    modeled: op.2 * 1e6,
                });
            }
            v6e8 = Some(ops.map(|(_, report, _)| report));
        }
    }
    v6e8.expect("v6e-8 is a VM setup")
}

/// Tab. IX: packed bootstrapping at Set D; the paper publishes v4-8,
/// v5e-4, v5p-8 and v6e-8 (no v6e-4). Returns v6e-8's critical path.
fn table9(rows: &mut Vec<Row>, charges: &mut u64) -> f64 {
    let params = ParamSet::D.params();
    let graph = OpGraph::single_op(HeOpKind::Bootstrap, params.limbs);
    let mut v6e8_critical_ms = 0.0;
    for (gen, cores, label) in VM_SETUPS {
        let mut pod = PodSim::new(gen, cores);
        let est = cost_graph(&mut pod, &params, &graph, ExecMode::Unfused);
        *charges += pod_charges(&pod);
        if label == "v6e-8" {
            v6e8_critical_ms = est.critical_ms();
        }
        let name = format!("paper {label}");
        if let Some(&(_, published)) = BOOTSTRAP_BASELINES.iter().find(|(n, _)| *n == name) {
            rows.push(Row {
                table: Table::Tab9,
                published,
                modeled: est.amortized_ms(),
            });
        }
    }
    v6e8_critical_ms
}

/// Tab. X: radix-2 CT and MAT NTT on TPUv4, 128-batch.
fn table10(rows: &mut Vec<Row>, charges: &mut u64) {
    let batch = 128;
    for &(logn, r, _c, paper_ct, paper_mat) in &TABLE10_ROWS {
        let n = 1usize << logn;
        let ct = kernel_us(TpuGeneration::V4, charges, |s| {
            gpu_style::charge_ct_ntt(s, n, batch)
        });
        let mat = kernel_us(TpuGeneration::V4, charges, |s| {
            costs::charge_ntt_params(s, r, n / r);
            costs::charge_ntt_batch(s, r, n / r, batch, Category::NttMatMul);
        });
        for (published, modeled) in [(paper_ct, ct), (paper_mat, mat)] {
            rows.push(Row {
                table: Table::Tab10,
                published,
                modeled,
            });
        }
    }
}

/// §V-D: MNIST per image by the paper's method (one v6e core, unfused,
/// every op alone) and a HELR iteration on one v6e core (optimised and
/// scheduled, as the `helr` bin compares it).
fn workloads(rows: &mut Vec<Row>, mnist: &Program, helr_one_core: &Schedule) {
    let paper_style = Scheduler::new(TpuGeneration::V6e, 1).with_mode(ExecMode::Unfused);
    rows.push(Row {
        table: Table::Workloads,
        published: PAPER_MNIST_MS_PER_IMAGE,
        modeled: paper_style.naive_wall_s(&mnist.graph, &mnist.params) * 1e3,
    });
    rows.push(Row {
        table: Table::Workloads,
        published: PAPER_HELR_MS_PER_ITER,
        modeled: helr_one_core.wall_s() * 1e3,
    });
}

/// Charges every row. `helr_one_core` is the optimised HELR graph's
/// schedule on one v6e core, which the caller has already compiled.
pub fn charge_all(mnist: &Program, helr_one_core: &Schedule) -> Charged {
    let mut rows = Vec::new();
    let mut charges = 0;
    table5(&mut rows, &mut charges);
    table6(&mut rows, &mut charges);
    table7(&mut rows, &mut charges);
    let v6e8_backbone = table8(&mut rows, &mut charges);
    let v6e8_bootstrap_ms = table9(&mut rows, &mut charges);
    table10(&mut rows, &mut charges);
    workloads(&mut rows, mnist, helr_one_core);
    Charged {
        rows,
        v6e8_backbone,
        v6e8_bootstrap_ms,
        charges,
    }
}

/// Published rows that have no modeled counterpart here, for the
/// README and the run notes.
pub const UNMODELED: &str =
    "Tab. VIII rows of other systems (FIDESlib, Cheddar, FAB, HEAP, BASALISC, \
WarpDrive, CraterLake, OpenFHE) and the energy-efficiency ratios; Tab. IX's other systems and \
its breakdown percentages; TensorFHE+/WarpDrive rows of Tab. VII; Fig. 5 and Fig. 11-14";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_relative_to_the_published_value() {
        let row = Row {
            table: Table::Tab5,
            published: 4.0,
            modeled: 5.0,
        };
        assert_eq!(row.err_pct(), 25.0);
        let mut names: Vec<&str> = Table::ALL.iter().map(|t| t.metric()).collect();
        names.dedup();
        assert_eq!(names.len(), Table::ALL.len());
        assert!(names.iter().all(|n| crate::metrics::lookup(n).is_some()));
    }
}
