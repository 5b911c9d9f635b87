//! The representation domain of a negacyclic ring element
//! `R_q = Z_q[x]/(x^N+1)`; [`crate::PolyBatch`] carries one per batch.

/// Representation domain of a [`crate::PolyBatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Coefficient (power-basis) representation.
    Coefficient,
    /// Evaluation (NTT) representation, in the radix-2 bit-reversed layout.
    Evaluation,
}
