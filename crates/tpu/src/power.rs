//! Power and energy-efficiency accounting.
//!
//! The paper's efficiency method (§V-A Metric): pick the tensor-core
//! count whose aggregate TDP matches the comparison device's, then
//! compare kernels-per-second-per-watt.

use crate::spec::TpuGeneration;

/// A device power envelope (TDP) paired with a measured kernel latency.
#[derive(Debug, Clone, Copy)]
pub struct EfficiencyPoint {
    /// Device TDP in watts.
    pub watts: f64,
    /// Kernel latency in seconds (single kernel).
    pub latency_s: f64,
    /// Kernels completed per second at this latency (parallel units included).
    pub kernels_per_s: f64,
}

impl EfficiencyPoint {
    /// Builds a point from a single-unit latency replicated over
    /// `parallel_units` identical units (the paper's amortization).
    pub fn from_latency(watts: f64, latency_s: f64, parallel_units: u32) -> Self {
        Self {
            watts,
            latency_s,
            kernels_per_s: parallel_units as f64 / latency_s,
        }
    }

    /// Kernels per second per watt — the paper's energy-efficiency metric.
    pub(crate) fn throughput_per_watt(&self) -> f64 {
        self.kernels_per_s / self.watts
    }
}

/// Ratio of `ours` to `baseline` throughput-per-watt (>1 means we win).
pub fn efficiency_ratio(ours: &EfficiencyPoint, baseline: &EfficiencyPoint) -> f64 {
    ours.throughput_per_watt() / baseline.throughput_per_watt()
}

/// Tensor-core count whose aggregate TDP best matches `target_watts`,
/// clamped to the VM's available cores (and at least one).
pub fn cores_matching_power(gen: TpuGeneration, target_watts: f64) -> u32 {
    let spec = gen.spec();
    let ideal = (target_watts / spec.tc_watts).round() as i64;
    ideal.clamp(1, spec.tensor_cores as i64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_per_watt_basic() {
        let p = EfficiencyPoint::from_latency(100.0, 1e-3, 4);
        assert!((p.kernels_per_s - 4000.0).abs() < 1e-9);
        assert!((p.throughput_per_watt() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_direction() {
        let ours = EfficiencyPoint::from_latency(100.0, 1e-3, 1);
        let base = EfficiencyPoint::from_latency(100.0, 2e-3, 1);
        assert!((efficiency_ratio(&ours, &base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn core_matching_clamps() {
        // An enormous target cannot exceed the VM's core count.
        let c = cores_matching_power(TpuGeneration::V6e, 10_000.0);
        assert_eq!(c, TpuGeneration::V6e.spec().tensor_cores);
        // A tiny target still gets one core.
        assert_eq!(cores_matching_power(TpuGeneration::V6e, 1.0), 1);
    }

    #[test]
    fn a100_class_power_maps_to_4ish_cores() {
        // Paper: 4 TCs vs A100 (400 W) / U280 (225 W) class baselines.
        let c = cores_matching_power(TpuGeneration::V6e, 300.0);
        assert!((3..=6).contains(&c), "cores={c}");
    }
}
