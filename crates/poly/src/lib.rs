//! # cross-poly
//!
//! Negacyclic polynomial rings `R_q = Z_q[x]/(x^N + 1)` and the reference
//! NTT engines the CROSS paper builds on:
//!
//! * a naive `O(N²)` negacyclic transform (test oracle),
//! * the radix-2 Cooley–Tukey butterfly NTT (paper Alg. 3 / §F1) —
//!   the algorithm GPUs favour and TPUs suffer under,
//! * the 4-step matrix NTT (paper Fig. 10 row 1) — the decomposition
//!   MAT later rewrites into the layout-invariant 3-step form,
//! * the host engine ([`host_ntt`]): the same radix-2 dataflow on
//!   Shoup/lazy-reduced arithmetic with a cache-blocked stage
//!   schedule ([`small_ntt`]) — the default *functional* engine,
//!   bit-identical to the radix-2 loop and several times faster.
//!
//! All engines agree bit-for-bit (modulo output ordering, which is part
//! of each engine's contract) and are property-tested against the
//! convolution theorem.
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
pub mod engines;
pub mod host_ntt;
pub mod ntt;
pub mod ring;
pub mod rns_poly;
pub mod sampling;
pub mod small_ntt;
pub mod tables;

pub use batch::PolyBatch;
pub use engines::{CooleyTukeyNtt, FourStepNtt, NaiveNtt, NttEngine, OutputOrder};
pub use host_ntt::HostNtt;
pub use ring::Poly;
pub use rns_poly::{RnsContext, RnsPoly};
pub use tables::NttTables;
