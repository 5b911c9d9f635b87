//! Memory-Aligned Transformation (MAT) — paper §IV-B.
//!
//! MAT represents every data reordering as a permutation matrix and
//! applies it to *preknown* parameters offline, so runtime kernels are
//! layout-invariant:
//!
//! * [`perm`] — permutation/embedding utilities;
//! * [`ntt3`] — the layout-invariant 3-step negacyclic NTT (Fig. 10):
//!   transpose eliminated via `(A@B)ᵀ = Bᵀ@Aᵀ` + twiddle symmetry,
//!   bit-reverse eliminated via offline row/column permutation;
//! * [`matmul_mod`] / [`matmul_mod_par`] — the host modular matmuls
//!   the 3-step NTT runs on the CPU, and the oracle for BAT's products.

mod matmul;
pub mod ntt3;
pub mod perm;

pub use matmul::{matmul_mod, matmul_mod_par};
