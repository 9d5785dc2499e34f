//! Solver configuration.

use sem_solvers::cg::CgOptions;
use sem_solvers::schwarz::SchwarzConfig;

/// Treatment of the convective term (§4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvectionScheme {
    /// Explicit extrapolation (EXTk matching the BDF order) of every
    /// transported field's convection: standard, CFL-limited to
    /// ≲ 0.5–0.7.
    Ext,
    /// Operator-integration-factor splitting: the BDF history levels of
    /// every transported field — velocity, temperature and species — are
    /// advected to the new time level along the characteristics by one
    /// nested sweep, permitting convective CFL of 1–5. Each step sizes
    /// the sweep's RK4 substeps per Δt from its own CFL
    /// ([`crate::convection::oifs_substeps`]: one per 0.5 of CFL).
    Oifs,
}

/// Boussinesq buoyancy coupling.
#[derive(Clone, Copy, Debug)]
pub struct Boussinesq {
    /// Buoyancy acceleration direction and magnitude per unit
    /// temperature, i.e. the force is `g_beta · T` (e.g. `[0, ra_pr, 0]`
    /// in nondimensional Rayleigh–Bénard form).
    pub g_beta: [f64; 3],
    /// Thermal diffusivity κ of the temperature equation.
    pub kappa: f64,
}

/// Navier–Stokes solver configuration.
#[derive(Clone, Debug)]
pub struct NsConfig {
    /// Timestep size.
    pub dt: f64,
    /// Kinematic viscosity `ν = 1/Re`.
    pub nu: f64,
    /// BDF order (1, 2, or 3; the paper's scheme is 2nd order, Table 1
    /// also studies 3rd).
    pub torder: usize,
    /// Convective treatment.
    pub convection: ConvectionScheme,
    /// Filter strength α (0 disables; Table 1 uses 0.2, Fig. 3 uses 0.3).
    pub filter_alpha: f64,
    /// Pressure projection history depth `L` (0 disables; §5 suggests
    /// ~25).
    pub pressure_lmax: usize,
    /// CG options for the pressure (consistent Poisson) solve.
    pub pressure_cg: CgOptions,
    /// CG options for the velocity Helmholtz solves.
    pub helmholtz_cg: CgOptions,
    /// Schwarz preconditioner configuration for the pressure.
    pub schwarz: SchwarzConfig,
    /// Optional Boussinesq temperature coupling.
    pub boussinesq: Option<Boussinesq>,
    /// Enable solver observability: turns on the process-global `sem_obs`
    /// counters/spans and emits one per-timestep record (CG iterations,
    /// residuals, projection depth, CFL, per-phase times and latency
    /// quantiles) to the metrics sink from every `step()` — stdout
    /// `JSON `-prefixed lines by default. Off by default; the disabled
    /// path costs one relaxed atomic load per probe and does not change
    /// solver results bitwise.
    pub metrics: bool,
    /// Metrics destination. `None` keeps whatever sink is installed
    /// process-wide (stdout unless `TERASEM_METRICS_SINK` or
    /// `sem_obs::sink::set_sink` said otherwise); `Some(handle)` routes
    /// **this solver's** step and run records to `handle` and leaves the
    /// process-wide sink alone, so several solvers in one process can
    /// each carry their own sink (how `sem-serve` keeps per-job metrics
    /// logs separable). Only consulted when `metrics` is on.
    pub sink: Option<sem_obs::SinkHandle>,
    /// Rank id stamped on every step/run record this solver emits,
    /// overriding the process-wide stamp (`sem_obs::set_rank`), so merged
    /// multi-rank telemetry streams — and multiple in-process solvers
    /// tagged with job ids, `sem-serve`-style — stay attributable. `None`
    /// (the single-process default) keeps the process-wide stamp —
    /// usually unset, or `TERASEM_RANK` if the embedding binary applied
    /// it. Only consulted when `metrics` is on; purely observational,
    /// never read by the numerics.
    pub rank: Option<u32>,
    /// Deterministic fault-injection plan (`None` = no faults). Parsed
    /// from `TERASEM_FAULT` with [`crate::fault::FaultPlan::from_env`] or
    /// built programmatically. Any configured plan routes `step()`
    /// through the snapshot/rollback machinery, so an empty plan still
    /// changes timing (never results).
    pub faults: Option<crate::fault::FaultPlan>,
    /// Staged recovery policy for failed steps. Disabled by default: an
    /// uninjected run takes no snapshots and is bitwise-identical to a
    /// build without the recovery layer.
    pub recovery: crate::recovery::RecoveryPolicy,
    /// Run-supervision policy (`sem-run`): step-interval
    /// auto-checkpointing with retention. Only consulted by
    /// [`crate::supervisor::RunSupervisor`]; checkpointing is off by
    /// default and a plain `step()` loop never reads it.
    pub run: crate::supervisor::RunPolicy,
}

impl Default for NsConfig {
    fn default() -> Self {
        NsConfig {
            dt: 1e-2,
            nu: 1e-2,
            torder: 2,
            convection: ConvectionScheme::Ext,
            filter_alpha: 0.0,
            pressure_lmax: 25,
            pressure_cg: CgOptions {
                tol: 1e-8,
                max_iter: 2000,
            },
            helmholtz_cg: CgOptions {
                tol: 1e-10,
                max_iter: 2000,
            },
            schwarz: SchwarzConfig::default(),
            boussinesq: None,
            metrics: false,
            sink: None,
            rank: None,
            faults: None,
            recovery: crate::recovery::RecoveryPolicy::default(),
            run: crate::supervisor::RunPolicy::default(),
        }
    }
}

/// BDFk coefficients `(β₀, b₁.. b_k)` of
/// `(β₀ uⁿ − Σ_j b_j u^{n−j}) / Δt = RHS`.
pub fn bdf_coeffs(order: usize) -> (f64, Vec<f64>) {
    match order {
        1 => (1.0, vec![1.0]),
        2 => (1.5, vec![2.0, -0.5]),
        3 => (11.0 / 6.0, vec![3.0, -1.5, 1.0 / 3.0]),
        _ => panic!("unsupported BDF order {order}"),
    }
}

/// EXTk extrapolation coefficients to `tⁿ` from levels `n−1 .. n−k`.
pub fn ext_coeffs(order: usize) -> Vec<f64> {
    match order {
        1 => vec![1.0],
        2 => vec![2.0, -1.0],
        3 => vec![3.0, -3.0, 1.0],
        _ => panic!("unsupported extrapolation order {order}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bdf2_matches_paper_formula() {
        // (3uⁿ − 4u^{n−1} + u^{n−2}) / (2Δt): β₀=3/2, b=(2, −1/2).
        let (b0, b) = bdf_coeffs(2);
        assert_eq!(b0, 1.5);
        assert_eq!(b, vec![2.0, -0.5]);
    }

    #[test]
    fn bdf_coeffs_are_consistent() {
        // Consistency: β₀ − Σ b_j = 0 (constants are steady states) and
        // first-order condition Σ j·b_j = ... check exactness on u(t)=t:
        // (β₀ tⁿ − Σ b_j t^{n−j}) / Δt = 1.
        for order in 1..=3 {
            let (b0, b) = bdf_coeffs(order);
            let sum: f64 = b.iter().sum();
            assert!((b0 - sum).abs() < 1e-14, "order {order}");
            let tn = 5.0;
            let dt = 0.1;
            let mut acc = b0 * tn;
            for (j, bj) in b.iter().enumerate() {
                acc -= bj * (tn - (j as f64 + 1.0) * dt);
            }
            assert!((acc / dt - 1.0).abs() < 1e-12, "order {order}");
        }
    }

    #[test]
    fn ext_coeffs_are_exact_on_polynomials() {
        // EXTk reproduces degree k−1 polynomials at tⁿ.
        for order in 1..=3 {
            let c = ext_coeffs(order);
            let dt = 0.2;
            for deg in 0..order {
                let f = |t: f64| t.powi(deg as i32);
                let mut acc = 0.0;
                for (j, cj) in c.iter().enumerate() {
                    acc += cj * f(1.0 - (j as f64 + 1.0) * dt);
                }
                assert!((acc - f(1.0)).abs() < 1e-12, "order {order} degree {deg}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported BDF order")]
    fn bdf4_unsupported() {
        bdf_coeffs(4);
    }
}
