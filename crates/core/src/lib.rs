//! # cross-core
//!
//! The CROSS compiler — the paper's primary contribution. Two
//! architecturally universal transformations align HE kernels with
//! coarse-grained AI-ASIC hardware:
//!
//! * [`bat`] — **Basis-Aligned Transformation**: folds high-precision
//!   modular arithmetic into *dense* low-precision (int8) matrix
//!   multiplication for the MXU, eliminating the ~43 % zeros of the
//!   GPU-style sparse Toeplitz decomposition (paper §IV-A, Fig. 7,
//!   Alg. 2, Alg. 5, App. H/I/J).
//! * [`mat`] — **Memory-Aligned Transformation**: embeds transpose and
//!   bit-reverse reordering into offline-permuted twiddle parameters,
//!   yielding the layout-invariant 3-step negacyclic NTT with zero
//!   runtime data reordering (paper §IV-B, Fig. 9, Fig. 10).
//!
//! [`modred`] selects the modular-reduction strategy (Fig. 13 ablation),
//! [`bconv`] lowers Basis Conversion through BAT, [`plan`] sweeps
//! `(R, C)` factorization candidates the way §V-A describes, and
//! [`shard`] plans how the work splits across the cores of a
//! [`cross_tpu::PodSim`] (limb-parallel for latency, batch-parallel for
//! throughput). A batch of `B` polynomials runs one [`Ntt3Plan`] per
//! limb modulus, whose matmuls stream a `C·B` dimension (Fig. 11b's
//! unit of work).
//!
//! ## Example
//!
//! ```
//! use cross_core::mat::ntt3::{Ntt3Plan, Ntt3Config};
//! use cross_core::modred::ModRed;
//! use cross_poly::NttTables;
//! use cross_tpu::{TpuGeneration, TpuSim};
//! use std::sync::Arc;
//!
//! let n = 1usize << 8;
//! let q = cross_math::primes::ntt_prime(28, n as u64, 0).unwrap();
//! let tables = Arc::new(NttTables::new(n, q));
//! let plan = Ntt3Plan::new(tables, Ntt3Config { r: 16, c: 16, modred: ModRed::Montgomery, embed_bitrev: false });
//! let mut sim = TpuSim::new(TpuGeneration::V6e);
//! let a: Vec<u64> = (0..n as u64).collect();
//! let f = plan.forward_on_tpu(&mut sim, &a);
//! let back = plan.inverse_on_tpu(&mut sim, &f);
//! assert_eq!(back, a);
//! ```

pub mod bat;
pub mod bconv;
pub mod mat;
pub mod modred;
pub mod plan;
pub mod shard;

pub use bat::matmul::BatMatMul;
pub use mat::ntt3::{Ntt3Config, Ntt3Plan};
pub use modred::ModRed;
pub use shard::{ShardPlan, ShardStrategy};
