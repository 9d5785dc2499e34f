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
use sem_obs::fault::{self, FaultSite, FaultSpecError, SpecVar};

/// What to break.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Overwrite one (seed-chosen) node of a field with NaN.
    FieldNan,
    /// Overwrite one (seed-chosen) node of a field with +Inf.
    FieldInf,
    /// Arm one of the solver's injection sites for the attempt: make
    /// the pressure operator (`indef_op`) or its preconditioner
    /// (`indef_pc`) indefinite for one solve, NaN-poison the newest
    /// projection basis pair after its update guards ran so the *next*
    /// solve breaks down (`proj`), skip one gather-scatter combine
    /// (`gs`, finite but wrong, detectable only through the fired
    /// flag), or NaN-poison one coarse-grid RHS inside the Schwarz
    /// preconditioner (`coarse`). See [`FaultSite`].
    Site(FaultSite),
}

impl FaultKind {
    /// Spec-grammar name (also used in error messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::FieldNan => "nan",
            FaultKind::FieldInf => "inf",
            FaultKind::Site(site) => site.name(),
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
    /// Every target, in declaration order.
    const ALL: [FieldTarget; 5] = [
        FieldTarget::U,
        FieldTarget::V,
        FieldTarget::W,
        FieldTarget::Pressure,
        FieldTarget::Temperature,
    ];

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

/// The `TERASEM_FAULT` variable: items are indexed by step and take no
/// `rank=`.
const VAR: SpecVar = SpecVar {
    name: "TERASEM_FAULT",
    index: "step",
    ranked: false,
};

/// The kind table: `kind(:field)?` of one spec item.
fn event_kind(name: &str, field: Option<&str>) -> Result<(FaultKind, Option<FieldTarget>), String> {
    let kind = match name {
        "nan" => FaultKind::FieldNan,
        "inf" => FaultKind::FieldInf,
        _ => FaultKind::Site(
            FaultSite::from_name(name).ok_or_else(|| format!("unknown fault kind `{name}`"))?,
        ),
    };
    let field = match field {
        Some(f) => Some(
            FieldTarget::ALL
                .into_iter()
                .find(|t| t.name() == f)
                .ok_or_else(|| format!("unknown field `{f}`"))?,
        ),
        None => None,
    };
    match (kind.needs_field(), field) {
        (true, None) => Err(format!("`{name}` needs a field, e.g. `{name}:u@step`")),
        (false, Some(_)) => Err(format!("`{name}` takes no field qualifier")),
        _ => Ok((kind, field)),
    }
}

impl FaultPlan {
    /// Parse a `TERASEM_FAULT` spec: the shared grammar of
    /// [`sem_obs::fault`] (no `rank=` item), with
    ///
    /// ```text
    /// item  := 'seed=' N
    ///        | kind (':' field)? '@' step ('x' count)?
    /// kind  := 'nan' | 'inf' | 'indef_op' | 'indef_pc' | 'proj' | 'gs' | 'coarse'
    /// field := 'u' | 'v' | 'w' | 'p' | 't'     (required for nan/inf)
    /// ```
    ///
    /// Examples: `nan:u@3`, `indef_op@5x2`, `seed=7,inf:p@2;gs@4`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let spec = fault::parse_spec(&VAR, spec, event_kind)?;
        let events = spec.events.into_iter().map(|e| FaultEvent {
            kind: e.kind.0,
            field: e.kind.1,
            step: e.index as usize,
            count: e.count as usize,
        });
        Ok(FaultPlan {
            seed: spec.seed,
            events: events.collect(),
        })
    }

    /// Read the plan from `TERASEM_FAULT` (see
    /// [`sem_obs::fault::plan_from_env`]: unset or blank is `None`, a
    /// malformed spec warns once and is ignored).
    pub fn from_env() -> Option<FaultPlan> {
        fault::plan_from_env(&VAR, FaultPlan::parse)
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
        assert_eq!(p.events[1].kind, FaultKind::Site(FaultSite::PressureOperator));
        assert_eq!(p.events[1].count, 2);
        assert_eq!(p.events[2].kind, FaultKind::Site(FaultSite::GsExchange));
        assert!(p.events[2].field.is_none());
    }

    #[test]
    fn parse_coarse_kind() {
        let p = FaultPlan::parse("coarse@4x2").unwrap();
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].kind, FaultKind::Site(FaultSite::CoarseRhs));
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
    fn rank_pins_are_not_part_of_the_grammar() {
        // `rank=` belongs to TERASEM_NET_FAULT; every rank of a job runs
        // the same solver plan.
        assert!(FaultPlan::parse("rank=1,nan:u@3").is_err());
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
