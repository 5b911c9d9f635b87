//! # cross-poly
//!
//! RNS polynomials over negacyclic rings `R_q = Z_q[x]/(x^N + 1)` —
//! one container, [`PolyBatch`] ([`RnsPoly`] is its batch-of-one
//! alias), whose limbs are recycled through its context's
//! [`LimbPool`] — and one NTT per role:
//!
//! * the product: [`host_ntt::forward_inplace`] /
//!   [`host_ntt::inverse_inplace`], the radix-2 dataflow on
//!   Shoup/lazy-reduced arithmetic with a cache-blocked stage schedule
//!   ([`small_ntt`]) — what every domain conversion runs;
//! * the butterfly oracle: [`ntt::forward_inplace`] /
//!   [`ntt::inverse_inplace`], the radix-2 Cooley–Tukey NTT (paper
//!   Alg. 3 / §F1), the algorithm GPUs favour and TPUs suffer under;
//! * the `O(N²)` oracle: [`ntt::naive_forward`] /
//!   `ntt::naive_inverse`, natural order.
//!
//! The host engine is bit-identical to the butterflies, which equal the
//! naive transform up to bit-reversed output order; the MAT 3-step NTT
//! that rewrites the paper's 4-step matrix form (Fig. 10) lives in
//! `cross-core`.
//!
//! ## Example
//!
//! ```
//! use cross_poly::{NttTables, ntt};
//! let tables = NttTables::new(1 << 4, cross_math::primes::ntt_prime(28, 1 << 4, 0).unwrap());
//! let a: Vec<u64> = (0..16).collect();
//! let mut f = a.clone();
//! ntt::forward_inplace(&mut f, &tables);   // bit-reversed evaluation domain
//! let mut inv = f.clone();
//! ntt::inverse_inplace(&mut inv, &tables); // back to coefficients
//! assert_eq!(inv, a);
//! ```

pub mod batch;
pub mod host_ntt;
pub mod ntt;
pub mod pool;
pub mod ring;
pub mod rns_poly;
pub mod sampling;
pub mod small_ntt;
pub mod tables;

pub use batch::PolyBatch;
pub use pool::LimbPool;
pub use rns_poly::{RnsContext, RnsPoly};
pub use tables::NttTables;
