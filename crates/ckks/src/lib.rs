//! # cross-ckks
//!
//! A from-scratch leveled RNS-CKKS implementation (paper §II-A, \[15\],
//! \[14\]) — the HE scheme substrate every CROSS evaluation runs on:
//!
//! * canonical-embedding encoder (special FFT over `C^{N/2}`),
//! * RLWE key generation, encryption, decryption,
//! * HE-Add / HE-Mult (tensor + relinearization) / Rescale / Rotate,
//! * batched evaluation over [`BatchedCiphertext`] (same-level
//!   ciphertexts held entry by entry; each `*_batch` operator maps the
//!   eager body over them, so it is bit-exact with the sequential loop),
//! * hybrid key switching with digit decomposition (`dnum`, \[37\]),
//! * fast basis conversion (BConv) raise/reduce,
//! * a packed-bootstrapping cost estimator following the paper's own
//!   kernel-invocation-count methodology (§V-A, Tab. IX).
//!
//! Functional correctness is verified against exact plaintext
//! arithmetic; the paper verified against OpenFHE the same way
//! (DESIGN.md documents the substitution).
//!
//! ## Example
//!
//! ```
//! use cross_ckks::{CkksContext, CkksParams};
//! let params = CkksParams::toy();
//! let ctx = CkksContext::new(params, 42);
//! let kp = ctx.generate_keys();
//! let msg: Vec<f64> = (0..ctx.slot_count()).map(|i| i as f64 / 10.0).collect();
//! let ct = ctx.encrypt(&msg, &kp.public);
//! let back = ctx.decrypt(&ct, &kp.secret);
//! for (a, b) in msg.iter().zip(&back) {
//!     assert!((a - b).abs() < 1e-3);
//! }
//! ```

pub mod batched;
pub mod bootstrap;
pub mod ciphertext;
pub mod context;
pub mod costs;
pub mod encoder;
pub mod eval;
pub mod ext;
pub mod keys;
pub mod ks_plan;
pub mod params;

pub use batched::BatchedCiphertext;
pub use ciphertext::{scales_agree, Ciphertext, SCALE_TOLERANCE};
pub use context::CkksContext;
pub use encoder::CkksEncoder;
pub use eval::{Evaluator, HoistedDecomposition};
pub use keys::{KeyPair, PublicKey, SecretKey, SwitchingKey};
pub use ks_plan::KsPlan;
pub use params::{CkksParams, ParamSet};
