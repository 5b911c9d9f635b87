//! # cross-tpu
//!
//! A functional **and** analytical simulator of TPU-class AI ASICs — the
//! hardware-gate substitution of this reproduction (no physical TPU or
//! JAX/XLA toolchain is available; see DESIGN.md).
//!
//! The simulator mirrors the architecture of paper Fig. 4:
//!
//! * **MXU** — a `d×d` int8 systolic array (`d = 128`, `256` on v6e),
//!   four per tensor core, with 32-bit accumulation;
//! * **VPU** — 2048 SIMD ALUs over `(8, 128)` 32-bit VRegs (4 KB tiles);
//! * **XLU** — the cross-lane unit for transpose/shuffle/reduce, whose
//!   latency is *not* hidden and degrades with fine-grained access;
//! * **memory** — VMEM with per-generation read/write bandwidth and HBM
//!   for cold parameter loads, Tab. IV numbers throughout;
//! * **interconnect** — [`topology::Topology`] (per-generation ICI
//!   ring/torus bandwidth + hop latency, DCN between hosts) and
//!   [`pod::PodSim`], which owns N tensor cores and charges explicit
//!   transfer/collective costs so multi-chip estimates are honest
//!   (never `single-core / cores`).
//!
//! Every operation charges its cost to a [`trace::Trace`] with
//! XProf-style categories, so the paper's latency tables, throughput
//! plots and breakdown figures all fall out of the same machinery. The
//! MXU's int8 products are also computed for real (bit-exact integers);
//! the VPU's modular products are charge-only, their values computed by
//! the host arithmetic.
//!
//! ## Example
//!
//! ```
//! use cross_tpu::{TpuGeneration, TpuSim};
//! let mut sim = TpuSim::new(TpuGeneration::V6e);
//! sim.begin_kernel("demo-matmul");
//! let a = vec![1u8; 256 * 256];
//! let b = vec![2u8; 256 * 128];
//! let out = sim.matmul_u8(&a, &b, 256, 256, 128, cross_tpu::trace::Category::NttMatMul);
//! assert_eq!(out[0], 256 * 2); // full 256-length dot product
//! let report = sim.end_kernel();
//! assert!(report.latency_s > 0.0);
//! ```

pub mod pod;
pub mod power;
pub mod sim;
pub mod spec;
pub mod topology;
pub mod trace;
pub mod vreg;

pub use pod::{PodKernelReport, PodSim};
pub use sim::{KernelReport, TpuSim};
pub use spec::{ChipSpec, TpuGeneration};
pub use topology::{LinkSpec, Topology};
pub use trace::{Category, Trace};
