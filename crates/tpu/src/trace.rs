//! XProf-style execution trace: per-category time accounting.
//!
//! The paper reads its latency numbers and breakdowns (Fig. 12, Tab. IX)
//! from the XLA trace viewer; this module is the simulator's equivalent.
//!
//! Accounting is incremental: [`Trace::record`] adds each charge to a
//! running total and to its category's running sum, so the roll-up
//! reads are field loads however long the trace has grown. The sums add
//! the recorded values left to right, exactly as a fold over
//! [`Trace::entries`] would, so they hold the same floats bit for bit.

/// Operation categories, matching the legend of paper Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// MXU matmuls inside forward NTT.
    NttMatMul,
    /// MXU matmuls inside inverse NTT.
    InttMatMul,
    /// MXU matmuls inside Basis Conversion.
    BconvMatMul,
    /// Vectorized modular ops on the VPU (mul/add/sub, reductions).
    VecModOps,
    /// Cross-lane permutations (automorphism gather/scatter, shuffles).
    Permutation,
    /// 32-bit ↔ byte-chunk conversions introduced by BAT.
    TypeConversion,
    /// XLA-induced relayouts to (8,128) tiles.
    CopyReshape,
    /// HBM DMA for cold parameters / spills.
    DmaHbm,
    /// Inter-chip interconnect transfers (intra-host ICI ring/mesh).
    IciTransfer,
    /// Data-center network transfers (between hosts).
    DcnTransfer,
    /// Everything else (dispatch, scalar fix-ups).
    Other,
}

impl Category {
    /// Every category, in declaration (and `Ord`) order, so that
    /// `ALL[c as usize] == c`.
    pub const ALL: [Category; 11] = [
        Category::NttMatMul,
        Category::InttMatMul,
        Category::BconvMatMul,
        Category::VecModOps,
        Category::Permutation,
        Category::TypeConversion,
        Category::CopyReshape,
        Category::DmaHbm,
        Category::IciTransfer,
        Category::DcnTransfer,
        Category::Other,
    ];

    /// Display label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Category::NttMatMul => "NTT-MatMul",
            Category::InttMatMul => "INTT-MatMul",
            Category::BconvMatMul => "BConv-MatMul",
            Category::VecModOps => "VecModOps",
            Category::Permutation => "Permutation",
            Category::TypeConversion => "Type Conversion",
            Category::CopyReshape => "Copy+Reshape",
            Category::DmaHbm => "DMA(HBM)",
            Category::IciTransfer => "ICI",
            Category::DcnTransfer => "DCN",
            Category::Other => "Other",
        }
    }

    /// True for inter-chip / inter-host communication categories.
    pub fn is_interconnect(self) -> bool {
        matches!(self, Category::IciTransfer | Category::DcnTransfer)
    }

    /// True for categories that execute on the MXU.
    pub fn is_mxu(self) -> bool {
        matches!(
            self,
            Category::NttMatMul | Category::InttMatMul | Category::BconvMatMul
        )
    }
}

/// One recorded operation.
#[derive(Debug, Clone, Copy)]
pub struct TraceEntry {
    /// Category charged.
    pub category: Category,
    /// Seconds of busy time.
    pub seconds: f64,
    /// Op name (static, so a charge allocates nothing).
    pub label: &'static str,
}

/// An append-only execution trace with category roll-ups.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    total: f64,
    by_category: [f64; Category::ALL.len()],
}

/// Per-category totals of `entries`, descending by time (ties keep
/// category order): the roll-up behind [`Trace::breakdown`] and the
/// per-kernel breakdown of `TpuSim::end_kernel`. A category appears
/// once it has an entry, even a zero-second one.
pub(crate) fn breakdown_of(entries: &[TraceEntry]) -> Vec<(Category, f64)> {
    let mut sums = [None::<f64>; Category::ALL.len()];
    for e in entries {
        *sums[e.category as usize].get_or_insert(0.0) += e.seconds;
    }
    let mut v: Vec<(Category, f64)> = Category::ALL
        .into_iter()
        .zip(sums)
        .filter_map(|(c, s)| s.map(|s| (c, s)))
        .collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `seconds` of busy time under `category`.
    ///
    /// # Panics
    /// Panics, in every build, unless `seconds` is finite and
    /// non-negative: an `inf` or NaN from a degenerate spec (zero
    /// bandwidth, say) would poison the running sums and every kernel
    /// read off them afterwards, so it stops here, at its cause.
    pub fn record(&mut self, category: Category, seconds: f64, label: &'static str) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "charge must be finite and non-negative: {seconds} s of {category:?} ({label})"
        );
        self.entries.push(TraceEntry {
            category,
            seconds,
            label,
        });
        self.total += seconds;
        self.by_category[category as usize] += seconds;
    }

    /// All recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Total busy seconds across all categories.
    pub fn total_seconds(&self) -> f64 {
        self.total
    }

    /// Busy seconds charged to one category.
    pub fn seconds_of(&self, category: Category) -> f64 {
        self.by_category[category as usize]
    }

    /// Per-category totals, descending by time.
    pub fn breakdown(&self) -> Vec<(Category, f64)> {
        breakdown_of(&self.entries)
    }

    /// Clears all entries and zeroes the running sums.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
        self.total = 0.0;
        self.by_category = Default::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_sums() {
        let mut t = Trace::new();
        t.record(Category::VecModOps, 2.0, "a");
        t.record(Category::VecModOps, 3.0, "b");
        t.record(Category::NttMatMul, 5.0, "c");
        assert_eq!(t.total_seconds(), 10.0);
        assert_eq!(t.seconds_of(Category::VecModOps), 5.0);
        assert_eq!(t.breakdown()[0].1, 5.0);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert_eq!(t.total_seconds(), 0.0);
        assert!(t.breakdown().is_empty());
    }

    #[test]
    fn all_indexes_every_category() {
        // `by_category` is indexed by discriminant.
        for (i, c) in Category::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i);
        }
        assert_eq!(Category::Other as usize + 1, Category::ALL.len());
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(Category::VecModOps.label(), "VecModOps");
        assert_eq!(Category::CopyReshape.label(), "Copy+Reshape");
        assert!(Category::BconvMatMul.is_mxu());
        assert!(!Category::Permutation.is_mxu());
    }
}
