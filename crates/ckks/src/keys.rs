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
/// domain (limb `i` corresponds to global chain modulus `i`). Every
/// chain modulus is below `2³²` (`CkksParams`' bound), so a residue is
/// held at its own width, 4 B — the key inner product widens it as it
/// reads it.
#[derive(Debug, Clone)]
pub struct SwitchingKeyDigit {
    /// `b_j = -a_j·s + e_j + P·q̃_j·s'` limbs over the full chain.
    pub b: Vec<Vec<u32>>,
    /// `a_j` limbs over the full chain.
    pub a: Vec<Vec<u32>>,
}

/// A hybrid key-switching key (`dnum` digits, \[37\]).
#[derive(Debug, Clone)]
pub struct SwitchingKey {
    /// Per-digit key pairs.
    pub digits: Vec<SwitchingKeyDigit>,
}

impl SwitchingKey {
    /// Bytes of key material (for memory accounting, paper §V-C): the
    /// heap bytes its residues occupy, 4 B each.
    pub fn bytes(&self) -> usize {
        self.digits
            .iter()
            .flat_map(|d| d.b.iter().chain(&d.a))
            .map(|l| std::mem::size_of_val(l.as_slice()))
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
