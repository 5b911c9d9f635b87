//! The CKKS context: moduli chains, per-level RNS contexts, key
//! generation, encryption and decryption.

use crate::ciphertext::Ciphertext;
use crate::encoder::CkksEncoder;
use crate::keys::{KeyPair, PublicKey, SecretKey, SwitchingKey, SwitchingKeyDigit};
use crate::ks_plan::KsPlan;
use crate::params::CkksParams;
use cross_math::bigint::BigUint;
use cross_math::{modops, primes};
use cross_poly::ring::Domain;
use cross_poly::rns_poly::{RnsContext, RnsPoly};
use cross_poly::sampling;
use cross_poly::{host_ntt, LimbPool, NttTables};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks `m`, recovering it from poisoning, as `cross_math::par` does:
/// the Galois cache is written only by a completed insert, and an RNG
/// a panic interrupted is still a sound RNG whose stream moved on.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fully precomputed CKKS context.
///
/// Holds the `Q` chain (ciphertext moduli) and `P` chain (key-switching
/// extension moduli), RNS contexts for every level (with and without the
/// extension), the canonical-embedding encoder and a seeded RNG.
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    encoder: CkksEncoder,
    /// `q_0 … q_{L-1}` then `p_0 … p_{k-1}`.
    chain: Vec<u64>,
    /// `level_ctxs[l-1]`: RNS context over `q_0..q_{l-1}`.
    level_ctxs: Vec<Arc<RnsContext>>,
    /// `ks_ctxs[l-1]`: RNS context over `q_0..q_{l-1} ∪ P`.
    ks_ctxs: Vec<Arc<RnsContext>>,
    /// RNS context over the full `Q·P` chain (key-material encryption).
    full_ctx: Arc<RnsContext>,
    /// `P = Π p_i`.
    big_p: BigUint,
    /// `ks_plans[l-1]`: lazily built key-switching plan for level `l`
    /// (compiled BConv kernels, slot layouts, Shoup constants).
    ks_plans: Vec<OnceLock<Arc<KsPlan>>>,
    /// Cached evaluation-domain Galois permutations, one table per
    /// chain limb, keyed by the Galois element `g`.
    galois_perms: Mutex<HashMap<u64, Arc<Vec<Vec<u32>>>>>,
    rng: Mutex<StdRng>,
}

impl CkksContext {
    /// Builds a context (generates NTT-friendly prime chains and all
    /// per-level tables).
    ///
    /// # Panics
    /// Panics if the prime supply below `2^log2_q` is insufficient.
    pub fn new(params: CkksParams, seed: u64) -> Self {
        let total = params.limbs + params.special_limbs();
        let chain = primes::ntt_prime_chain(params.log2_q, params.n as u64, total)
            .expect("not enough NTT primes below 2^log2_q for this degree");
        // One NttTables (and one cached host-engine table set) per modulus,
        // shared by every level/extension context instead of rebuilding
        // O(N) twiddle material per level — the chain has `limbs`
        // levels each holding up to `total` tables.
        let shared: Vec<Arc<NttTables>> = chain
            .iter()
            .map(|&q| Arc::new(NttTables::new(params.n, q)))
            .collect();
        // Likewise one pool of spare limbs: a limb freed at one level is
        // reused at any other, or in a key-switching extension.
        let pool = LimbPool::new(params.n);
        let ctx_of = |tables| Arc::new(RnsContext::with_pool(tables, pool.clone()));
        let mut level_ctxs = Vec::with_capacity(params.limbs);
        let mut ks_ctxs = Vec::with_capacity(params.limbs);
        for l in 1..=params.limbs {
            let q_part = shared[..l].to_vec();
            level_ctxs.push(ctx_of(q_part.clone()));
            let mut ext = q_part;
            ext.extend_from_slice(&shared[params.limbs..]);
            ks_ctxs.push(ctx_of(ext));
        }
        let full_ctx = ctx_of(shared);
        let big_p = BigUint::product_of(&chain[params.limbs..]);
        Self {
            params,
            encoder: CkksEncoder::new(params.n),
            chain,
            level_ctxs,
            ks_ctxs,
            full_ctx,
            big_p,
            ks_plans: (0..params.limbs).map(|_| OnceLock::new()).collect(),
            galois_perms: Mutex::new(HashMap::new()),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// The parameter set.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Slot count `N/2`.
    pub fn slot_count(&self) -> usize {
        self.params.slot_count()
    }

    /// The encoder.
    pub fn encoder(&self) -> &CkksEncoder {
        &self.encoder
    }

    /// Ciphertext moduli `q_0..q_{L-1}`.
    pub fn q_moduli(&self) -> &[u64] {
        &self.chain[..self.params.limbs]
    }

    /// Extension moduli `p_0..p_{k-1}`.
    pub fn p_moduli(&self) -> &[u64] {
        &self.chain[self.params.limbs..]
    }

    /// `P = Π p_i`.
    pub(crate) fn big_p(&self) -> &BigUint {
        &self.big_p
    }

    /// RNS context for level `l` (`q_0..q_{l-1}`).
    pub fn level_ctx(&self, l: usize) -> &Arc<RnsContext> {
        &self.level_ctxs[l - 1]
    }

    /// RNS context for level `l` plus the extension basis.
    pub(crate) fn ks_ctx(&self, l: usize) -> &Arc<RnsContext> {
        &self.ks_ctxs[l - 1]
    }

    /// The key-switching plan for level `l`, compiled on first use and
    /// cached for the context's lifetime (same `OnceLock<Arc<_>>`
    /// pattern as the per-modulus NTT tables) — repeated calls return the
    /// same `Arc`, so `BconvKernel::compile` never sits on a per-op
    /// path after warmup.
    pub fn ks_plan(&self, l: usize) -> &Arc<KsPlan> {
        self.ks_plans[l - 1].get_or_init(|| Arc::new(KsPlan::build(self, l)))
    }

    /// Evaluation-domain permutation tables for Galois element `g`,
    /// one per chain limb (chain order), built once per `g` and cached.
    ///
    /// Index `i` of the forward transform holds the evaluation at
    /// `ψ^{e_i}` for an odd exponent `e_i`; the automorphism `σ_g`
    /// maps that value to the evaluation at `ψ^{g·e_i mod 2N}` —
    /// another odd power, so `NTT(σ_g(c)) = π_g(NTT(c))` is a pure
    /// index gather, bit-exact and transform-free. The engine's
    /// output ordering is recovered empirically per modulus by
    /// transforming the monomial `x` (its transform *is* the point
    /// list) and inverting `ψ^e` through a power table.
    pub fn galois_eval_perm(&self, g: u64) -> Arc<Vec<Vec<u32>>> {
        let mut cache = lock(&self.galois_perms);
        if let Some(p) = cache.get(&g) {
            return p.clone();
        }
        let perms = Arc::new(self.build_galois_eval_perm(g));
        cache.insert(g, perms.clone());
        perms
    }

    fn build_galois_eval_perm(&self, g: u64) -> Vec<Vec<u32>> {
        assert!(g % 2 == 1, "Galois elements must be odd");
        let n = self.params.n;
        let two_n = 2 * n as u64;
        let g = g % two_n;
        let full = self.ks_ctx(self.params.limbs);
        full.tables()
            .iter()
            .map(|t| {
                // the transform of the monomial x lists the engine's
                // evaluation points in output order
                let mut v = vec![0u64; n];
                v[1] = 1;
                host_ntt::forward_inplace(&mut v, t);
                let mut exp_of = HashMap::with_capacity(n);
                for e in (1..two_n).step_by(2) {
                    exp_of.insert(t.psi_power(e), e);
                }
                let exps: Vec<u64> = v
                    .iter()
                    .map(|vi| {
                        *exp_of
                            .get(vi)
                            .expect("forward NTT output must be a pure evaluation map")
                    })
                    .collect();
                let mut index_of = vec![u32::MAX; 2 * n];
                for (i, &e) in exps.iter().enumerate() {
                    index_of[e as usize] = i as u32;
                }
                // out[i] = in[j] with e_j = g·e_i mod 2N
                exps.iter()
                    .map(|&e| {
                        let src = index_of[(g * e % two_n) as usize];
                        debug_assert_ne!(src, u32::MAX, "odd exponents are closed under g");
                        src
                    })
                    .collect()
            })
            .collect()
    }

    /// Limb indices of key-switching digit `j` at level `l`
    /// (fixed-α partition of the full chain, \[37\]).
    pub fn digit_range(&self, j: usize, l: usize) -> std::ops::Range<usize> {
        let alpha = self.params.digit_limbs();
        let start = j * alpha;
        let end = ((j + 1) * alpha).min(l);
        start..end.max(start)
    }

    /// Number of non-empty digits at level `l`.
    pub fn digit_count(&self, l: usize) -> usize {
        let alpha = self.params.digit_limbs();
        l.div_ceil(alpha)
    }

    // ------------------------------------------------------------------
    // Key generation
    // ------------------------------------------------------------------

    /// Generates a full key set (secret, public, relinearization).
    pub fn generate_keys(&self) -> KeyPair {
        let secret = self.generate_secret();
        let public = self.generate_public(&secret);
        let relin = self.generate_relin_key(&secret);
        KeyPair {
            secret,
            public,
            relin,
        }
    }

    /// Samples a ternary secret.
    pub(crate) fn generate_secret(&self) -> SecretKey {
        let mut rng = lock(&self.rng);
        SecretKey {
            coeffs: sampling::ternary_signed(&mut *rng, self.params.n),
        }
    }

    /// Public key `(b, a) = (-a·s + e, a)` over the top-level `Q` basis.
    pub(crate) fn generate_public(&self, sk: &SecretKey) -> PublicKey {
        let ctx = self.level_ctx(self.params.limbs).clone();
        let mut rng = lock(&self.rng);
        let n = self.params.n;
        let a_limbs: Vec<Vec<u64>> = ctx
            .moduli()
            .iter()
            .map(|&q| sampling::uniform_poly(&mut *rng, n, q))
            .collect();
        let e = sampling::gaussian_signed(&mut *rng, n, sampling::ERROR_SIGMA);
        drop(rng);
        let mut a = RnsPoly::from_limbs(ctx.clone(), a_limbs, Domain::Coefficient);
        a.to_evaluation();
        let mut s = RnsPoly::from_signed_coeffs(ctx.clone(), &sk.coeffs);
        s.to_evaluation();
        let mut e_poly = RnsPoly::from_signed_coeffs(ctx, &e);
        e_poly.to_evaluation();
        let b = a.mul_pointwise(&s).neg().add(&e_poly);
        PublicKey { b, a }
    }

    /// Switching key from `s' = target` (signed integer coefficients,
    /// possibly of magnitude up to `N`) to the context secret `s`.
    pub(crate) fn generate_switching_key(&self, sk: &SecretKey, target: &[i64]) -> SwitchingKey {
        let params = &self.params;
        let l = params.limbs;
        let alpha = params.digit_limbs();
        let dnum_eff = l.div_ceil(alpha);
        let big_q = BigUint::product_of(self.q_moduli());
        let mut digits = Vec::with_capacity(dnum_eff);
        for j in 0..dnum_eff {
            let range = self.digit_range(j, l);
            // q̃_j = Q̂_j · [Q̂_j^{-1}]_{Q_j} (≡1 mod Q_j, ≡0 elsewhere).
            let digit_moduli = &self.q_moduli()[range.clone()];
            let big_qj = BigUint::product_of(digit_moduli);
            let (qhat_j, rem) = {
                // Q̂_j = Q / Q_j via repeated word division.
                let mut acc = big_q.clone();
                let mut rem_total = 0u64;
                for &m in digit_moduli {
                    let (d, r) = acc.div_rem_u64(m);
                    rem_total += r;
                    acc = d;
                }
                (acc, rem_total)
            };
            debug_assert_eq!(rem, 0);
            // [Q̂_j^{-1}] mod Q_j via CRT over the digit moduli (Garner).
            let t_j = {
                // lift the per-modulus inverses to an integer < Q_j
                let residues: Vec<u64> = digit_moduli
                    .iter()
                    .map(|&m| modops::inv_mod(qhat_j.mod_u64(m), m).expect("coprime"))
                    .collect();
                cross_math::rns::RnsBasis::new(digit_moduli.to_vec()).reconstruct(&residues)
            };
            let _ = &big_qj;
            // w_j = P · Q̂_j · t_j (an integer); keys store its residues.
            let w_j = self.big_p.mul(&qhat_j).mul(&t_j);
            digits.push(self.encrypt_key_factor(sk, target, &w_j));
        }
        SwitchingKey { digits }
    }

    /// Relinearization key: switching key for `s²`.
    pub(crate) fn generate_relin_key(&self, sk: &SecretKey) -> SwitchingKey {
        let s2 = negacyclic_square(&sk.coeffs);
        self.generate_switching_key(sk, &s2)
    }

    /// Rotation key for `steps` slots: switching key for `σ_g(s)`,
    /// `g = 5^steps mod 2N`.
    pub fn generate_rotation_key(&self, sk: &SecretKey, steps: usize) -> SwitchingKey {
        let g = self.galois_element(steps);
        let rotated = automorphism_signed(&sk.coeffs, g);
        self.generate_switching_key(sk, &rotated)
    }

    /// Conjugation key: switching key for `σ_{2N-1}(s)` (complex
    /// conjugation of the slots).
    pub fn generate_conjugation_key(&self, sk: &SecretKey) -> SwitchingKey {
        let g = 2 * self.params.n as u64 - 1;
        let conjugated = automorphism_signed(&sk.coeffs, g);
        self.generate_switching_key(sk, &conjugated)
    }

    /// Galois element for a left rotation by `steps`: `5^steps mod 2N`.
    pub fn galois_element(&self, steps: usize) -> u64 {
        let two_n = 2 * self.params.n as u64;
        modops::pow_mod(5, steps as u64, two_n)
    }

    /// One digit: `(b_j, a_j)` with `b_j = -a_j·s + e_j + w_j·s'` over
    /// the full `Q·P` chain, evaluation domain.
    fn encrypt_key_factor(
        &self,
        sk: &SecretKey,
        target: &[i64],
        w_j: &BigUint,
    ) -> SwitchingKeyDigit {
        let n = self.params.n;
        let full_ctx = self.full_ctx.clone();
        let mut rng = lock(&self.rng);
        let a_limbs: Vec<Vec<u64>> = self
            .chain
            .iter()
            .map(|&m| sampling::uniform_poly(&mut *rng, n, m))
            .collect();
        let e = sampling::gaussian_signed(&mut *rng, n, sampling::ERROR_SIGMA);
        drop(rng);
        let mut a = RnsPoly::from_limbs(full_ctx.clone(), a_limbs, Domain::Coefficient);
        a.to_evaluation();
        let mut s = RnsPoly::from_signed_coeffs(full_ctx.clone(), &sk.coeffs);
        s.to_evaluation();
        let mut e_poly = RnsPoly::from_signed_coeffs(full_ctx.clone(), &e);
        e_poly.to_evaluation();
        let mut sp = RnsPoly::from_signed_coeffs(full_ctx.clone(), target);
        sp.to_evaluation();
        // w_j per-modulus residues
        let w_res: Vec<u64> = self.chain.iter().map(|&m| w_j.mod_u64(m)).collect();
        let wsp = sp.mul_scalar_per_limb(&w_res);
        let b = a.mul_pointwise(&s).neg().add(&e_poly).add(&wsp);
        // canonical residues of sub-2³² moduli: stored at their width
        let narrow = |p: &RnsPoly| -> Vec<Vec<u32>> {
            p.limbs()
                .iter()
                .map(|l| {
                    l.iter()
                        .map(|&x| u32::try_from(x).expect("chain moduli are below 2^32"))
                        .collect()
                })
                .collect()
        };
        SwitchingKeyDigit {
            b: narrow(&b),
            a: narrow(&a),
        }
    }

    // ------------------------------------------------------------------
    // Encrypt / decrypt
    // ------------------------------------------------------------------

    /// Encodes a real message into a top-level plaintext polynomial.
    pub fn encode(&self, msg: &[f64]) -> RnsPoly {
        self.encode_at(msg, self.params.limbs, self.params.scale())
    }

    /// Encodes at a given level and scale.
    pub fn encode_at(&self, msg: &[f64], level: usize, scale: f64) -> RnsPoly {
        let coeffs = self.encoder.encode_real(msg, scale);
        let mut p = RnsPoly::from_signed_coeffs(self.level_ctx(level).clone(), &coeffs);
        p.to_evaluation();
        p
    }

    /// Encrypts a real message under the public key at top level.
    pub fn encrypt(&self, msg: &[f64], pk: &PublicKey) -> Ciphertext {
        let m = self.encode(msg);
        self.encrypt_plaintext(&m, pk, self.params.scale())
    }

    /// Encrypts an already-encoded plaintext.
    pub fn encrypt_plaintext(&self, m: &RnsPoly, pk: &PublicKey, scale: f64) -> Ciphertext {
        let ctx = self.level_ctx(self.params.limbs).clone();
        let n = self.params.n;
        let mut rng = lock(&self.rng);
        let v = sampling::ternary_signed(&mut *rng, n);
        let e0 = sampling::gaussian_signed(&mut *rng, n, sampling::ERROR_SIGMA);
        let e1 = sampling::gaussian_signed(&mut *rng, n, sampling::ERROR_SIGMA);
        drop(rng);
        let mut v_poly = RnsPoly::from_signed_coeffs(ctx.clone(), &v);
        v_poly.to_evaluation();
        let mut e0p = RnsPoly::from_signed_coeffs(ctx.clone(), &e0);
        e0p.to_evaluation();
        let mut e1p = RnsPoly::from_signed_coeffs(ctx, &e1);
        e1p.to_evaluation();
        let c0 = pk.b.mul_pointwise(&v_poly).add(&e0p).add(m);
        let c1 = pk.a.mul_pointwise(&v_poly).add(&e1p);
        Ciphertext {
            c0,
            c1,
            level: self.params.limbs,
            scale,
        }
    }

    /// Decrypts to real slot values.
    pub fn decrypt(&self, ct: &Ciphertext, sk: &SecretKey) -> Vec<f64> {
        let m = self.decrypt_to_poly(ct, sk);
        let coeffs: Vec<f64> = (0..self.params.n).map(|j| m.coeff_signed_f64(j)).collect();
        self.encoder.decode_real(&coeffs, ct.scale)
    }

    /// Raw decryption: `m = c0 + c1·s` in the coefficient domain.
    pub fn decrypt_to_poly(&self, ct: &Ciphertext, sk: &SecretKey) -> RnsPoly {
        let ctx = self.level_ctx(ct.level).clone();
        let mut s = RnsPoly::from_signed_coeffs(ctx, &sk.coeffs);
        s.to_evaluation();
        let mut m = ct.c0.add(&ct.c1.mul_pointwise(&s));
        m.to_coefficient();
        m
    }
}

/// Negacyclic square of signed coefficients over the integers.
pub(crate) fn negacyclic_square(s: &[i64]) -> Vec<i64> {
    let n = s.len();
    let mut out = vec![0i64; n];
    for i in 0..n {
        if s[i] == 0 {
            continue;
        }
        for j in 0..n {
            let p = s[i] * s[j];
            if i + j < n {
                out[i + j] += p;
            } else {
                out[i + j - n] -= p;
            }
        }
    }
    out
}

/// Galois automorphism `σ_g` on signed coefficients.
pub(crate) fn automorphism_signed(s: &[i64], g: u64) -> Vec<i64> {
    let n = s.len();
    let two_n = 2 * n as u64;
    let mut out = vec![0i64; n];
    for (j, &v) in s.iter().enumerate() {
        if v == 0 {
            continue;
        }
        let e = (j as u64 * (g % two_n)) % two_n;
        if e < n as u64 {
            out[e as usize] += v;
        } else {
            out[(e - n as u64) as usize] -= v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSet;

    fn ctx() -> CkksContext {
        CkksContext::new(CkksParams::toy(), 7)
    }

    #[test]
    fn a_lock_a_panic_poisoned_still_serves() {
        let c = ctx();
        let poison = |m: &dyn Fn()| {
            let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(m));
            assert!(hit.is_err());
        };
        poison(&|| {
            let _held = c.rng.lock();
            panic!("poisons the RNG lock");
        });
        poison(&|| {
            let _held = c.galois_perms.lock();
            panic!("poisons the Galois cache lock");
        });
        assert!(c.rng.is_poisoned() && c.galois_perms.is_poisoned());
        let kp = c.generate_keys();
        let rk = c.generate_rotation_key(&kp.secret, 1);
        let msg = vec![0.25; c.slot_count()];
        let rot = crate::Evaluator::new(&c).rotate(&c.encrypt(&msg, &kp.public), 1, &rk);
        for v in c.decrypt(&rot, &kp.secret) {
            assert!((v - 0.25).abs() < 1e-2, "slot {v}");
        }
    }

    #[test]
    fn a_switching_key_bills_its_heap_bytes() {
        let c = CkksContext::new(ParamSet::B.params(), 3);
        let key = c.generate_rotation_key(&c.generate_secret(), 1);
        let heap: usize = key
            .digits
            .iter()
            .flat_map(|d| d.b.iter().chain(&d.a))
            .map(|limb| limb.len() * std::mem::size_of::<u32>())
            .sum();
        assert_eq!(key.bytes(), heap);
        // 3 digits × 2 halves × 11 chain limbs × 8192 residues × 4 B
        assert_eq!(key.bytes(), 2_162_688);
    }

    #[test]
    fn centered_decode_matches_the_big_integer_oracle_at_every_level() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(41);
        for set in [ParamSet::A, ParamSet::B] {
            let c = CkksContext::new(set.params(), 5);
            for level in 1..=c.params().limbs {
                let basis = cross_math::rns::RnsBasis::new(c.q_moduli()[..level].to_vec());
                let half = basis.big_q().div_rem_u64(2).0;
                // the centering boundary, both ends, zero and one
                let mut cases: Vec<Vec<u64>> = [
                    half.clone(),
                    half.add_u64(1),
                    basis.big_q().sub(&BigUint::from(1u64)),
                    BigUint::from(0u64),
                    BigUint::from(1u64),
                ]
                .iter()
                .map(|x| basis.residues_of(x))
                .collect();
                cases.extend((0..2000).map(|_| {
                    basis
                        .moduli()
                        .iter()
                        .map(|&q| rng.gen_range(0..q))
                        .collect()
                }));
                for r in &cases {
                    assert_eq!(
                        basis.centered_f64(r.iter().copied()).to_bits(),
                        basis.reconstruct_signed_f64(r).to_bits(),
                        "{} level {level}: residues {r:?}",
                        set.name()
                    );
                }
            }
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let c = ctx();
        let kp = c.generate_keys();
        let msg: Vec<f64> = (0..c.slot_count())
            .map(|i| (i as f64 * 0.01).cos())
            .collect();
        let ct = c.encrypt(&msg, &kp.public);
        let back = c.decrypt(&ct, &kp.secret);
        for (a, b) in msg.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let c = ctx();
        let kp = c.generate_keys();
        let msg = vec![1.0; c.slot_count()];
        let ct1 = c.encrypt(&msg, &kp.public);
        let ct2 = c.encrypt(&msg, &kp.public);
        assert_ne!(ct1.c1.limbs()[0], ct2.c1.limbs()[0]);
    }

    #[test]
    fn wrong_key_garbage() {
        let c = ctx();
        let kp = c.generate_keys();
        let other = c.generate_secret();
        let msg = vec![0.5; c.slot_count()];
        let ct = c.encrypt(&msg, &kp.public);
        let back = c.decrypt(&ct, &other);
        // Decryption under the wrong key yields noise, not the message.
        let err: f64 = msg
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / msg.len() as f64;
        assert!(err > 1.0, "mean error {err} suspiciously small");
    }

    #[test]
    fn digit_partition_covers_all_limbs() {
        let c = ctx();
        let l = c.params().limbs;
        let mut covered = vec![false; l];
        for j in 0..c.digit_count(l) {
            for i in c.digit_range(j, l) {
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&x| x));
    }

    #[test]
    fn galois_elements_multiplicative() {
        let c = ctx();
        let two_n = 2 * c.params().n as u64;
        let g1 = c.galois_element(1);
        let g2 = c.galois_element(2);
        assert_eq!(g2, g1 * g1 % two_n);
    }

    #[test]
    fn automorphism_signed_matches_unsigned() {
        let s: Vec<i64> = (0..16).map(|i| (i % 3) - 1).collect();
        let out = automorphism_signed(&s, 5);
        // oracle via RnsPoly
        let ctx = Arc::new(RnsContext::new(16, vec![268_369_921]));
        let p = RnsPoly::from_signed_coeffs(ctx, &s);
        let r = p.automorphism(5);
        for (j, &o) in out.iter().enumerate() {
            assert_eq!(r.coeff_signed_f64(j), o as f64);
        }
    }
}
