//! RLWE key material: secret, public, and hybrid switching keys.

use cross_poly::rns_poly::RnsPoly;

/// Ternary secret key, kept as signed coefficients so it can be lifted
/// into any RNS basis (including the key-switching extension basis).
#[derive(Debug, Clone)]
pub struct SecretKey {
    /// Signed ternary coefficients (length `N`).
    pub coeffs: Vec<i64>,
}

/// Public encryption key `(b, a) = (-a·s + e, a)` over the full `Q`
/// basis, evaluation domain.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `b = -a·s + e`.
    pub b: RnsPoly,
    /// Uniform `a`.
    pub a: RnsPoly,
}

/// One digit of a hybrid switching key: `(b_j, a_j)` over the extended
/// `Q·P` chain, stored as raw per-modulus limbs in the evaluation
/// domain (limb `i` corresponds to global chain modulus `i`).
#[derive(Debug, Clone)]
pub struct SwitchingKeyDigit {
    /// `b_j = -a_j·s + e_j + P·q̃_j·s'` limbs over the full chain.
    pub b: Vec<Vec<u64>>,
    /// `a_j` limbs over the full chain.
    pub a: Vec<Vec<u64>>,
}

impl SwitchingKeyDigit {
    /// Wraps raw full-chain limbs (evaluation domain) as a key digit.
    pub(crate) fn new(b: Vec<Vec<u64>>, a: Vec<Vec<u64>>) -> Self {
        Self { b, a }
    }
}

/// A hybrid key-switching key (`dnum` digits, \[37\]).
#[derive(Debug, Clone)]
pub struct SwitchingKey {
    /// Per-digit key pairs.
    pub digits: Vec<SwitchingKeyDigit>,
}

impl SwitchingKey {
    /// Bytes of key material (for memory accounting, paper §V-C).
    pub fn bytes(&self) -> usize {
        self.digits
            .iter()
            .map(|d| {
                d.b.iter().map(|l| l.len() * 4).sum::<usize>()
                    + d.a.iter().map(|l| l.len() * 4).sum::<usize>()
            })
            .sum()
    }
}

/// Generated key set.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// The secret key (client side).
    pub secret: SecretKey,
    /// The public encryption key.
    pub public: PublicKey,
    /// Relinearization key (switching key for `s²`).
    pub relin: SwitchingKey,
}
