//! Deterministic fault injection for the NS time loop (`sem-guard`).
//!
//! A [`FaultPlan`] is a seeded, fully reproducible list of faults to
//! inject at chosen steps: poisoning a field with NaN/Inf, making the
//! pressure operator or its preconditioner transiently indefinite,
//! corrupting a successive-RHS projection basis update, or dropping a
//! gather-scatter exchange. Plans are parsed from the `TERASEM_FAULT`
//! environment variable (see [`FaultPlan::parse`] for the grammar) or
//! built programmatically, and are attached to a solver via
//! [`crate::NsConfig::faults`].
//!
//! Field faults are applied by the solver directly (the node index is
//! derived from the plan seed, so runs are identical across thread
//! counts). Operator/preconditioner/projection/gather-scatter faults
//! are armed through the process-global [`sem_obs::fault`] letterbox
//! and consumed at their injection sites deep inside `sem-solvers` /
//! `sem-gs`; every firing increments
//! [`sem_obs::Counter::FaultsInjected`] and leaves a sticky flag the
//! solver drains, so tests can assert a fault actually happened.

use sem_linalg::rng::SplitMix64;
use std::fmt;

/// What to break.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one (seed-chosen) node of a field with NaN.
    FieldNan,
    /// Overwrite one (seed-chosen) node of a field with +Inf.
    FieldInf,
    /// Negate the pressure-operator output for one solve so PCG sees
    /// `pᵀAp < 0` and reports `IndefiniteOperator`.
    IndefiniteOperator,
    /// Negate the preconditioned residual for one solve so PCG sees
    /// `rᵀz < 0` at entry and reports `IndefinitePreconditioner`.
    IndefinitePreconditioner,
    /// NaN-poison the most recent successive-RHS projection basis pair
    /// *after* its update guards ran; the **next** pressure solve
    /// starts from a NaN guess and breaks down (cured by clearing the
    /// projection history).
    ProjectionCorruption,
    /// Skip one gather-scatter combine, leaving shared nodal copies
    /// stale — finite but wrong, detectable only through the fired
    /// flag the exchange layer reports upward.
    GsDrop,
    /// NaN-poison the restricted RHS of one coarse-grid solve inside
    /// the Schwarz preconditioner; the NaN propagates through the
    /// Cholesky solve into the preconditioner output and PCG reports a
    /// NaN `r·z` breakdown.
    CoarseCorruption,
}

impl FaultKind {
    /// Spec-grammar name (also used in error messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::FieldNan => "nan",
            FaultKind::FieldInf => "inf",
            FaultKind::IndefiniteOperator => "indef_op",
            FaultKind::IndefinitePreconditioner => "indef_pc",
            FaultKind::ProjectionCorruption => "proj",
            FaultKind::GsDrop => "gs",
            FaultKind::CoarseCorruption => "coarse",
        }
    }

    /// Does this kind require a `:field` qualifier?
    pub fn needs_field(self) -> bool {
        matches!(self, FaultKind::FieldNan | FaultKind::FieldInf)
    }
}

/// Which solver field a `nan`/`inf` fault poisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FieldTarget {
    /// x-velocity component.
    U,
    /// y-velocity component.
    V,
    /// z-velocity component (3D runs only).
    W,
    /// Pressure.
    Pressure,
    /// Temperature (Boussinesq runs only).
    Temperature,
}

impl FieldTarget {
    /// Spec-grammar name.
    pub fn name(self) -> &'static str {
        match self {
            FieldTarget::U => "u",
            FieldTarget::V => "v",
            FieldTarget::W => "w",
            FieldTarget::Pressure => "p",
            FieldTarget::Temperature => "t",
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug)]
pub struct FaultEvent {
    /// What to inject.
    pub kind: FaultKind,
    /// Target field for `nan`/`inf` kinds, `None` otherwise.
    pub field: Option<FieldTarget>,
    /// 1-based step index (matching `StepStats::step`) at which the
    /// fault fires.
    pub step: usize,
    /// How many consecutive *attempts* of that step are hit (`xN` in
    /// the spec, default 1). `count = 2` re-injects on the first retry,
    /// forcing the recovery ladder past its first stage.
    pub count: usize,
}

/// A deterministic, seeded schedule of faults.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed for the node-index choice of field faults (`seed=N` in the
    /// spec; defaults to 0). Two runs with the same plan corrupt the
    /// same nodes, regardless of `TERASEM_THREADS`.
    pub seed: u64,
    /// Scheduled faults.
    pub events: Vec<FaultEvent>,
}

/// Parse failure for a `TERASEM_FAULT` spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid TERASEM_FAULT spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultPlan {
    /// Parse a fault spec. Grammar (items separated by `,` or `;`):
    ///
    /// ```text
    /// spec  := item ((',' | ';') item)*
    /// item  := 'seed=' N
    ///        | kind (':' field)? '@' step ('x' count)?
    /// kind  := 'nan' | 'inf' | 'indef_op' | 'indef_pc' | 'proj' | 'gs' | 'coarse'
    /// field := 'u' | 'v' | 'w' | 'p' | 't'     (required for nan/inf)
    /// ```
    ///
    /// Examples: `nan:u@3`, `indef_op@5x2`, `seed=7,inf:p@2;gs@4`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for raw in spec.split([',', ';']) {
            let item = raw.trim();
            if item.is_empty() {
                continue;
            }
            if let Some(seed) = item.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| FaultSpecError(format!("bad seed `{item}`")))?;
                continue;
            }
            let (head, tail) = item
                .split_once('@')
                .ok_or_else(|| FaultSpecError(format!("missing `@step` in `{item}`")))?;
            let (kind_str, field_str) = match head.split_once(':') {
                Some((k, f)) => (k.trim(), Some(f.trim())),
                None => (head.trim(), None),
            };
            let kind = match kind_str {
                "nan" => FaultKind::FieldNan,
                "inf" => FaultKind::FieldInf,
                "indef_op" => FaultKind::IndefiniteOperator,
                "indef_pc" => FaultKind::IndefinitePreconditioner,
                "proj" => FaultKind::ProjectionCorruption,
                "gs" => FaultKind::GsDrop,
                "coarse" => FaultKind::CoarseCorruption,
                other => {
                    return Err(FaultSpecError(format!("unknown fault kind `{other}`")));
                }
            };
            let field = match field_str {
                Some("u") => Some(FieldTarget::U),
                Some("v") => Some(FieldTarget::V),
                Some("w") => Some(FieldTarget::W),
                Some("p") => Some(FieldTarget::Pressure),
                Some("t") => Some(FieldTarget::Temperature),
                Some(other) => {
                    return Err(FaultSpecError(format!("unknown field `{other}` in `{item}`")));
                }
                None => None,
            };
            if kind.needs_field() && field.is_none() {
                return Err(FaultSpecError(format!(
                    "`{}` needs a field, e.g. `{}:u@step`",
                    kind.name(),
                    kind.name()
                )));
            }
            if !kind.needs_field() && field.is_some() {
                return Err(FaultSpecError(format!(
                    "`{}` takes no field qualifier",
                    kind.name()
                )));
            }
            let (step_str, count_str) = match tail.split_once('x') {
                Some((s, c)) => (s.trim(), Some(c.trim())),
                None => (tail.trim(), None),
            };
            let step = step_str
                .parse::<usize>()
                .ok()
                .filter(|&s| s >= 1)
                .ok_or_else(|| FaultSpecError(format!("bad step in `{item}`")))?;
            let count = match count_str {
                Some(c) => c
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| FaultSpecError(format!("bad repeat count in `{item}`")))?,
                None => 1,
            };
            plan.events.push(FaultEvent {
                kind,
                field,
                step,
                count,
            });
        }
        Ok(plan)
    }

    /// Read the plan from `TERASEM_FAULT`. Returns `None` when the
    /// variable is unset or empty; a malformed spec prints one warning
    /// per process to stderr — naming the variable and the bad token —
    /// and is ignored (a robustness layer must not crash the run it
    /// protects).
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var("TERASEM_FAULT").ok()?;
        if spec.trim().is_empty() {
            return None;
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(e) => {
                sem_obs::warn::invalid_env(
                    "TERASEM_FAULT",
                    &spec,
                    &format!("{e}; ignoring the fault plan"),
                );
                None
            }
        }
    }

    /// Events scheduled for attempt `attempt` (0-based) of 1-based step
    /// `step`: an event fires on attempts `0..count` of its step.
    pub fn events_for(&self, step: usize, attempt: usize) -> impl Iterator<Item = &FaultEvent> {
        self.events
            .iter()
            .filter(move |e| e.step == step && attempt < e.count)
    }

    /// Deterministic node index in `[0, n)` for a field fault: hashes
    /// the plan seed with the step and field so distinct faults hit
    /// distinct nodes, but reruns (at any thread count) hit the same
    /// ones: the first SplitMix64 draw seeded from all three.
    pub fn node_index(&self, step: usize, field: FieldTarget, n: usize) -> usize {
        assert!(n > 0, "node_index on empty field");
        let s = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(step as u64))
            .wrapping_add(field as u64);
        (SplitMix64::new(s).next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_grammar() {
        let p = FaultPlan::parse("seed=7, nan:u@3 ; indef_op@5x2, gs@4").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.events.len(), 3);
        assert_eq!(p.events[0].kind, FaultKind::FieldNan);
        assert_eq!(p.events[0].field, Some(FieldTarget::U));
        assert_eq!(p.events[0].step, 3);
        assert_eq!(p.events[0].count, 1);
        assert_eq!(p.events[1].kind, FaultKind::IndefiniteOperator);
        assert_eq!(p.events[1].count, 2);
        assert_eq!(p.events[2].kind, FaultKind::GsDrop);
        assert!(p.events[2].field.is_none());
    }

    #[test]
    fn parse_coarse_kind() {
        let p = FaultPlan::parse("coarse@4x2").unwrap();
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].kind, FaultKind::CoarseCorruption);
        assert!(p.events[0].field.is_none());
        assert_eq!(p.events[0].step, 4);
        assert_eq!(p.events[0].count, 2);
        assert!(FaultPlan::parse("coarse:u@4").is_err(), "no field qualifier");
    }

    #[test]
    fn malformed_env_spec_is_ignored_with_a_warning() {
        // The warning itself goes through `sem_obs::warn::invalid_env`
        // (once per process, pinned by its own unit test); here we pin
        // that a malformed TERASEM_FAULT never yields a plan and never
        // panics, on repeated reads.
        std::env::set_var("TERASEM_FAULT", "frobnicate@3");
        assert!(FaultPlan::from_env().is_none());
        assert!(FaultPlan::from_env().is_none(), "second read also ignored");
        std::env::remove_var("TERASEM_FAULT");
        assert!(FaultPlan::from_env().is_none());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("nan@3").is_err()); // missing field
        assert!(FaultPlan::parse("gs:u@3").is_err()); // spurious field
        assert!(FaultPlan::parse("frobnicate@3").is_err()); // unknown kind
        assert!(FaultPlan::parse("nan:q@3").is_err()); // unknown field
        assert!(FaultPlan::parse("nan:u@0").is_err()); // steps are 1-based
        assert!(FaultPlan::parse("nan:u").is_err()); // missing step
        assert!(FaultPlan::parse("nan:u@2x0").is_err()); // zero repeat
        assert!(FaultPlan::parse("seed=minus").is_err());
    }

    #[test]
    fn events_for_respects_attempt_counts() {
        let p = FaultPlan::parse("indef_op@5x2").unwrap();
        assert_eq!(p.events_for(5, 0).count(), 1);
        assert_eq!(p.events_for(5, 1).count(), 1);
        assert_eq!(p.events_for(5, 2).count(), 0);
        assert_eq!(p.events_for(4, 0).count(), 0);
    }

    #[test]
    fn node_index_is_deterministic_and_seeded() {
        let a = FaultPlan::parse("seed=1,nan:u@3").unwrap();
        let b = FaultPlan::parse("seed=1,nan:u@3").unwrap();
        let c = FaultPlan::parse("seed=2,nan:u@3").unwrap();
        let n = 1000;
        let ia = a.node_index(3, FieldTarget::U, n);
        assert_eq!(ia, b.node_index(3, FieldTarget::U, n));
        assert!(ia < n);
        // Different seeds / steps / fields decorrelate (overwhelmingly).
        assert_ne!(ia, c.node_index(3, FieldTarget::U, n));
        assert_ne!(ia, a.node_index(4, FieldTarget::U, n));
    }

    #[test]
    fn empty_spec_parses_to_empty_plan() {
        let p = FaultPlan::parse("").unwrap();
        assert!(p.events.is_empty());
        assert_eq!(p.seed, 0);
    }
}
