//! α–β machine cost model.
//!
//! Predicted time for a point-to-point message of `b` bytes is
//! `α + β·b` (latency plus inverse bandwidth); computation of `f` flops
//! takes `f / rate`. Collectives are composed from tree stages, matching
//! the paper's "latency × 2 log₂ P" lower-bound reasoning for the
//! coarse-grid all-to-all (Fig. 6).
//!
//! The ASCI-Red-333 preset is calibrated so the model reproduces the
//! paper's own numbers: ~20 µs effective MPI latency, ~310 MB/s per-node
//! bandwidth, and a sustained per-CPU rate of ~95 MFLOPS (the paper's
//! single-processor 194 GFLOPS / 2048 nodes), ~78 MFLOPS per CPU in
//! dual-processor mode (82% dual-processor efficiency, §6).

/// Latency/bandwidth/flop-rate model of one machine configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineModel {
    /// Human-readable name for reports.
    pub name: &'static str,
    /// Point-to-point message latency α, seconds.
    pub latency: f64,
    /// Inverse bandwidth β, seconds per byte.
    pub inv_bandwidth: f64,
    /// Sustained floating-point rate per process, flops/second.
    pub flop_rate: f64,
}

impl MachineModel {
    /// ASCI-Red 333 MHz node, single-processor mode.
    pub fn asci_red_333_single() -> Self {
        MachineModel {
            name: "ASCI-Red-333 (single)",
            latency: 20e-6,
            inv_bandwidth: 1.0 / 310e6,
            flop_rate: 95e6,
        }
    }

    /// ASCI-Red 333 MHz node, dual-processor mode: each node computes at
    /// 2 × 82% of the single rate (the paper's measured dual-processor
    /// efficiency); the NIC is shared so communication terms are
    /// unchanged.
    pub fn asci_red_333_dual() -> Self {
        MachineModel {
            name: "ASCI-Red-333 (dual)",
            latency: 20e-6,
            inv_bandwidth: 1.0 / 310e6,
            flop_rate: 2.0 * 0.82 * 95e6,
        }
    }

    /// The "std." build of Table 4: fixed mxm kernel instead of per-shape
    /// selection costs ~8% of sustained rate.
    pub fn asci_red_333_single_std() -> Self {
        MachineModel {
            flop_rate: 0.92 * 95e6,
            name: "ASCI-Red-333 (single, std.)",
            ..Self::asci_red_333_single()
        }
    }

    /// Dual-processor "std." build (see [`Self::asci_red_333_single_std`]).
    pub fn asci_red_333_dual_std() -> Self {
        MachineModel {
            flop_rate: 0.92 * 2.0 * 0.82 * 95e6,
            name: "ASCI-Red-333 (dual, std.)",
            ..Self::asci_red_333_dual()
        }
    }

    /// Time for one point-to-point message of `bytes`.
    pub fn ptp_time(&self, bytes: u64) -> f64 {
        self.latency + self.inv_bandwidth * bytes as f64
    }

    /// Time for `flops` floating-point operations.
    pub fn compute_time(&self, flops: u64) -> f64 {
        flops as f64 / self.flop_rate
    }

    /// Contention-free binary-tree fan-in + fan-out over `p` ranks, each
    /// stage carrying `bytes`: the paper's `latency · 2 log₂ P` curve when
    /// `bytes → 0`. Returns 0 for `p ≤ 1`.
    pub fn tree_fan_in_out(&self, p: usize, bytes: u64) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let stages = (p as f64).log2().ceil();
        2.0 * stages * self.ptp_time(bytes)
    }

    /// All-reduce of `bytes` over `p` ranks (tree up + tree down).
    pub fn allreduce_time(&self, p: usize, bytes: u64) -> f64 {
        self.tree_fan_in_out(p, bytes)
    }

    /// The paper's Fig. 6 lower-bound curve: `latency · 2 log₂ P`.
    pub fn latency_lower_bound(&self, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        2.0 * (p as f64).log2().ceil() * self.latency
    }

    /// A model fitted to *measured* point-to-point timings on the local
    /// machine (`sem-net`'s ping-pong calibration): α and β come from
    /// [`fit_alpha_beta`], the flop rate from whatever kernel measurement
    /// the caller trusts.
    pub fn measured(latency: f64, inv_bandwidth: f64, flop_rate: f64) -> Self {
        MachineModel {
            name: "measured (local)",
            latency,
            inv_bandwidth,
            flop_rate,
        }
    }
}

/// Least-squares fit of the α–β model `t = α + β·b` to measured
/// `(bytes, seconds)` samples — how `sem-net` turns ping-pong timings
/// into a [`MachineModel`] for the local machine. Negative fitted values
/// are clamped to 0 (measurement noise on a fast loopback transport can
/// produce a slightly negative slope or intercept). Returns `None` with
/// fewer than two samples or when all samples share one message size.
pub fn fit_alpha_beta(samples: &[(u64, f64)]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|&(b, _)| b as f64).sum();
    let sy: f64 = samples.iter().map(|&(_, t)| t).sum();
    let sxx: f64 = samples.iter().map(|&(b, _)| (b as f64) * (b as f64)).sum();
    let sxy: f64 = samples.iter().map(|&(b, t)| b as f64 * t).sum();
    let denom = n * sxx - sx * sx;
    if denom <= 0.0 {
        return None;
    }
    let beta = ((n * sxy - sx * sy) / denom).max(0.0);
    let alpha = ((sy - beta * sx) / n).max(0.0);
    Some((alpha, beta))
}

/// A decomposed time estimate (useful for reporting which regime —
/// computation- or communication-dominated — a configuration is in).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    /// Seconds spent in computation on the critical path.
    pub compute: f64,
    /// Seconds spent in message latency on the critical path.
    pub latency: f64,
    /// Seconds spent in bandwidth (volume) terms on the critical path.
    pub bandwidth: f64,
}

impl CostBreakdown {
    /// Total predicted time.
    pub fn total(&self) -> f64 {
        self.compute + self.latency + self.bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ptp_time_is_affine() {
        let m = MachineModel::asci_red_333_single();
        let t0 = m.ptp_time(0);
        let t1 = m.ptp_time(1000);
        assert!((t0 - 20e-6).abs() < 1e-12);
        assert!(t1 > t0);
        assert!((t1 - t0 - 1000.0 / 310e6).abs() < 1e-12);
    }

    #[test]
    fn dual_mode_is_faster_compute_same_network() {
        let s = MachineModel::asci_red_333_single();
        let d = MachineModel::asci_red_333_dual();
        assert!(d.flop_rate > s.flop_rate);
        assert!(d.flop_rate < 2.0 * s.flop_rate, "dual efficiency < 100%");
        assert_eq!(d.latency, s.latency);
    }

    #[test]
    fn latency_bound_matches_paper_formula() {
        let m = MachineModel::asci_red_333_single();
        // 2 log2(P) * α: for P=1024 that's 20 stages.
        let t = m.latency_lower_bound(1024);
        assert!((t - 20.0 * 20e-6).abs() < 1e-12);
        assert_eq!(m.latency_lower_bound(1), 0.0);
    }

    #[test]
    fn tree_times_grow_logarithmically() {
        let m = MachineModel::asci_red_333_single();
        let t256 = m.tree_fan_in_out(256, 8);
        let t512 = m.tree_fan_in_out(512, 8);
        // One extra stage up + one down.
        assert!((t512 - t256 - 2.0 * m.ptp_time(8)).abs() < 1e-12);
    }

    #[test]
    fn fit_alpha_beta_recovers_exact_affine_samples() {
        let (alpha, beta) = (20e-6, 1.0 / 310e6);
        let samples: Vec<(u64, f64)> = [0u64, 64, 1024, 65536, 1 << 20]
            .iter()
            .map(|&b| (b, alpha + beta * b as f64))
            .collect();
        let (a, b) = fit_alpha_beta(&samples).unwrap();
        assert!((a - alpha).abs() < 1e-12, "alpha {a}");
        assert!((b - beta).abs() < 1e-15, "beta {b}");
        let m = MachineModel::measured(a, b, 1e9);
        assert!((m.ptp_time(1024) - (alpha + beta * 1024.0)).abs() < 1e-12);
    }

    #[test]
    fn fit_alpha_beta_rejects_degenerate_input() {
        assert!(fit_alpha_beta(&[]).is_none());
        assert!(fit_alpha_beta(&[(8, 1e-6)]).is_none());
        // All samples at one size: slope is unidentifiable.
        assert!(fit_alpha_beta(&[(8, 1e-6), (8, 2e-6)]).is_none());
        // Noise driving the fit negative is clamped, not propagated.
        let (a, b) = fit_alpha_beta(&[(0, 5e-6), (1000, 4e-6)]).unwrap();
        assert!(b >= 0.0 && a >= 0.0);
    }
}
