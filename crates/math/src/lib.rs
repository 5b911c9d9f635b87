//! # cross-math
//!
//! Arithmetic substrate for the CROSS reproduction, and the one home of
//! its modular arithmetic: word-level modular operations ([`modops`],
//! including the division-free Barrett reduction the pointwise loops
//! run), the Shoup kernels ([`shoup`]) with which the host NTT, key
//! switching and BConv multiply by precomputed constants, and the
//! scalar Barrett and optimized-Montgomery reducers of the paper's
//! Alg. 4 and Alg. 1 behind the Fig. 13 ablation. Beside them:
//! NTT-friendly prime generation, a minimal arbitrary-precision integer
//! for CRT/`Q`-level computations, RNS basis tooling (including the
//! precomputed tables that Basis Conversion consumes), and a
//! registry-free parked worker pool ([`par`]) for the batched limb and
//! key-switch loops.
//!
//! Everything in this crate is implemented from scratch; no external
//! number-theory dependencies are used.
//!
//! ## Example
//!
//! ```
//! use cross_math::{modops, primes};
//!
//! // A 28-bit NTT-friendly prime for degree N = 2^12 (q ≡ 1 mod 2N).
//! let q = primes::ntt_prime(28, 1 << 12, 0).unwrap();
//! assert_eq!(q % (2 << 12), 1);
//! let x = modops::mul_mod(123_456, 654_321, q);
//! assert_eq!(x, (123_456u128 * 654_321 % q as u128) as u64);
//! ```

pub mod barrett;
pub mod bigint;
pub mod bitrev;
pub mod modops;
pub mod montgomery;
pub mod par;
pub mod primes;
pub mod rns;
pub mod shoup;

pub use barrett::BarrettReducer;
pub use bigint::BigUint;
pub use montgomery::Montgomery;
pub use rns::RnsBasis;
