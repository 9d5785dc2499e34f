//! Deterministic fault injection's one vocabulary (`sem-guard`): the
//! spec grammar that `TERASEM_FAULT` and `TERASEM_NET_FAULT` share, and
//! the solver's fault sites with their process-global arming registry.
//!
//! **Spec grammar.** `sem_ns::FaultPlan` and `sem_net::NetFaultPlan`
//! keep only their kind/qualifier tables; [`parse_spec`] tokenizes for
//! both:
//!
//! ```text
//! spec  := item ((',' | ';') item)*
//! item  := 'seed=' N
//!        | 'rank=' R                          (ranked variables only)
//!        | kind (':' qual)? '@' index ('x' count)?
//! ```
//!
//! with `index` and `count` at least 1 (`count` defaults to 1). Every
//! error is a [`FaultSpecError`] naming the variable, and
//! [`plan_from_env`] is the one path that reads a variable: a malformed
//! spec warns once per process and is ignored (a robustness layer must
//! not crash the run it protects).
//!
//! **Sites.** The NS time loop (`sem_ns::fault`) decides *when* a fault
//! should strike from a seeded plan; this module is the letterbox that
//! carries the decision down to the instrumented sites in `sem_solvers`
//! and `sem_gs` without threading configuration through every call
//! signature. A site is *armed* with [`arm`], and the next probe at that
//! site ([`fire`]) consumes the arming exactly once, increments
//! [`Counter::FaultsInjected`](crate::Counter), emits a
//! `fault_injected` trace note, and records a sticky "fired" flag that
//! the orchestrator collects with [`drain`] — that self-report is how
//! silent corruption (a skipped gather-scatter exchange produces finite
//! but wrong values) becomes a detectable step failure.
//!
//! Cost when nothing is armed: a single relaxed atomic load behind
//! [`any_armed`] per probe site — the same budget as the metrics
//! counters, so production paths pay nothing measurable.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// One fault-spec environment variable: its name (every error and
/// warning names it), what an item's `@index` counts, and whether its
/// grammar takes `rank=R`.
#[derive(Clone, Copy, Debug)]
pub struct SpecVar {
    /// The variable, e.g. `TERASEM_FAULT`.
    pub name: &'static str,
    /// What `@index` counts (`step`, `frame`), for error messages.
    pub index: &'static str,
    /// Does the grammar take a `rank=R` item?
    pub ranked: bool,
}

/// Parse failure of a fault spec, naming the variable it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpecError {
    var: &'static str,
    msg: String,
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {} spec: {}", self.var, self.msg)
    }
}

impl std::error::Error for FaultSpecError {}

/// One `kind(:qual)?@index(xcount)?` item of a parsed spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecEvent<K> {
    /// What the plan's kind table made of `kind` and `qual`.
    pub kind: K,
    /// The 1-based index (`@index`).
    pub index: u64,
    /// How many consecutive indices are hit (`xcount`, default 1).
    pub count: u64,
}

/// A parsed fault spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spec<K> {
    /// `seed=N` (default 0; the last one wins).
    pub seed: u64,
    /// `rank=R`, if the variable is ranked and the spec pins one.
    pub rank: Option<usize>,
    /// The scheduled events, in spec order.
    pub events: Vec<SpecEvent<K>>,
}

/// Tokenize `spec` under `var`'s grammar. `table` is the plan's kind
/// table: it maps an item's `kind` and optional `qual` to the plan's
/// kind, or says what is wrong with them.
pub fn parse_spec<K>(
    var: &SpecVar,
    spec: &str,
    mut table: impl FnMut(&str, Option<&str>) -> Result<K, String>,
) -> Result<Spec<K>, FaultSpecError> {
    let err = |msg: String| FaultSpecError { var: var.name, msg };
    let positive = |s: &str| s.trim().parse::<u64>().ok().filter(|&v| v >= 1);
    let mut out = Spec {
        seed: 0,
        rank: None,
        events: Vec::new(),
    };
    for raw in spec.split([',', ';']) {
        let item = raw.trim();
        if item.is_empty() {
            continue;
        }
        if let Some(seed) = item.strip_prefix("seed=") {
            out.seed = seed
                .trim()
                .parse()
                .map_err(|_| err(format!("bad seed `{item}`")))?;
            continue;
        }
        if let Some(rank) = item.strip_prefix("rank=").filter(|_| var.ranked) {
            let rank = rank.trim().parse();
            out.rank = Some(rank.map_err(|_| err(format!("bad rank `{item}`")))?);
            continue;
        }
        let (head, tail) = item
            .split_once('@')
            .ok_or_else(|| err(format!("missing `@{}` in `{item}`", var.index)))?;
        let (name, qual) = match head.split_once(':') {
            Some((k, q)) => (k.trim(), Some(q.trim())),
            None => (head.trim(), None),
        };
        let kind = table(name, qual).map_err(|e| err(format!("{e} in `{item}`")))?;
        let (index, count) = match tail.split_once('x') {
            Some((i, c)) => (i, Some(c)),
            None => (tail, None),
        };
        let index = positive(index).ok_or_else(|| err(format!("bad {} in `{item}`", var.index)))?;
        let count = match count {
            Some(c) => positive(c).ok_or_else(|| err(format!("bad repeat count in `{item}`")))?,
            None => 1,
        };
        out.events.push(SpecEvent { kind, index, count });
    }
    Ok(out)
}

/// Read a plan from `var` with `parse`. `None` when the variable is
/// unset or blank; a malformed spec prints one warning per process —
/// naming the variable and the bad token — and is ignored.
pub fn plan_from_env<P>(
    var: &SpecVar,
    parse: impl FnOnce(&str) -> Result<P, FaultSpecError>,
) -> Option<P> {
    let spec = std::env::var(var.name).ok()?;
    if spec.trim().is_empty() {
        return None;
    }
    match parse(&spec) {
        Ok(plan) => Some(plan),
        Err(e) => {
            crate::warn::invalid_env(var.name, &spec, &format!("{e}; ignoring the fault plan"));
            None
        }
    }
}

/// The solver's instrumented injection points; their names are the
/// `TERASEM_FAULT` kinds that arm them. Field-level NaN/Inf faults are
/// applied directly by `sem_ns` and need no site here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum FaultSite {
    /// Negate the consistent-Poisson operator output inside the pressure
    /// CG `A p` closure — trips the `IndefiniteOperator` guard.
    PressureOperator,
    /// Negate the pressure preconditioner output — trips the
    /// `IndefinitePreconditioner` guard.
    PressurePrecond,
    /// Corrupt the stored successive-RHS projection basis so the next
    /// solve starts from a poisoned initial guess.
    ProjectionUpdate,
    /// Skip one gather-scatter exchange (finite but wrong values; only
    /// the sticky fired flag makes this detectable).
    GsExchange,
    /// Poison the restricted coarse-solve RHS inside the Schwarz
    /// preconditioner's vertex coarse grid — the NaN propagates through
    /// the Cholesky solve into the preconditioner output and trips the
    /// CG `r·z` breakdown guard.
    CoarseRhs,
}

/// Number of fault sites.
pub const NUM_SITES: usize = 5;

impl FaultSite {
    /// All sites, in declaration order.
    pub const ALL: [FaultSite; NUM_SITES] = [
        FaultSite::PressureOperator,
        FaultSite::PressurePrecond,
        FaultSite::ProjectionUpdate,
        FaultSite::GsExchange,
        FaultSite::CoarseRhs,
    ];

    /// The `TERASEM_FAULT` kind that arms this site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PressureOperator => "indef_op",
            FaultSite::PressurePrecond => "indef_pc",
            FaultSite::ProjectionUpdate => "proj",
            FaultSite::GsExchange => "gs",
            FaultSite::CoarseRhs => "coarse",
        }
    }

    /// The site a `TERASEM_FAULT` kind arms, if `name` is one.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }
}

// Fast gate: probe sites check one relaxed load and bail before touching
// the per-site cells.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO32: AtomicU32 = AtomicU32::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const FALSE: AtomicBool = AtomicBool::new(false);
/// Remaining armed firings per site (almost always 0 or 1; a plan may
/// arm the same site on consecutive attempts, never concurrently).
static ARMED: [AtomicU32; NUM_SITES] = [ZERO32; NUM_SITES];
/// Sticky per-site "a fault fired since the last drain" flags.
static FIRED: [AtomicBool; NUM_SITES] = [FALSE; NUM_SITES];

fn refresh_any_armed() {
    let any = ARMED.iter().any(|c| c.load(Ordering::Relaxed) > 0);
    ANY_ARMED.store(any, Ordering::Relaxed);
}

/// Is any site currently armed? One relaxed load — the probe-site fast
/// path.
#[inline]
pub fn any_armed() -> bool {
    ANY_ARMED.load(Ordering::Relaxed)
}

/// Arm `site` for one firing (stacking: arming twice yields two
/// firings).
pub fn arm(site: FaultSite) {
    ARMED[site as usize].fetch_add(1, Ordering::Relaxed);
    ANY_ARMED.store(true, Ordering::Relaxed);
}

/// Probe: if `site` is armed, consume one arming and report `true` (the
/// caller then applies its corruption). Instrumented through the
/// `faults_injected` counter and a trace note; also sets the sticky
/// fired flag collected by [`drain`].
#[inline]
pub fn fire(site: FaultSite) -> bool {
    if !any_armed() {
        return false;
    }
    fire_slow(site)
}

#[cold]
fn fire_slow(site: FaultSite) -> bool {
    let cell = &ARMED[site as usize];
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if cur == 0 {
            return false;
        }
        match cell.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => cur = now,
        }
    }
    FIRED[site as usize].store(true, Ordering::Relaxed);
    refresh_any_armed();
    crate::counters::add(crate::Counter::FaultsInjected, 1);
    crate::trace::note("fault_injected", site as usize as f64);
    true
}

/// The sites that fired between two [`drain`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fired([bool; NUM_SITES]);

impl Fired {
    /// Did `site` fire?
    pub fn contains(self, site: FaultSite) -> bool {
        self.0[site as usize]
    }
}

/// Empty the letterbox: disarm every site and clear every fired flag,
/// returning the sites that fired since the previous drain. The solver
/// calls it once per attempt; it is also the full reset.
pub fn drain() -> Fired {
    for cell in &ARMED {
        cell.store(0, Ordering::Relaxed);
    }
    ANY_ARMED.store(false, Ordering::Relaxed);
    Fired(std::array::from_fn(|i| FIRED[i].swap(false, Ordering::Relaxed)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const RANKED: SpecVar = SpecVar {
        name: "TERASEM_TEST_FAULT",
        index: "frame",
        ranked: true,
    };

    fn any_kind(kind: &str, qual: Option<&str>) -> Result<(String, Option<String>), String> {
        match kind {
            "bad" => Err(format!("unknown fault kind `{kind}`")),
            _ => Ok((kind.to_string(), qual.map(str::to_string))),
        }
    }

    #[test]
    fn tokenizer_splits_items_and_defaults_counts() {
        let s = parse_spec(&RANKED, " seed=7; rank=2, a:q@3x2 ;; b@1 ", any_kind).unwrap();
        assert_eq!((s.seed, s.rank), (7, Some(2)));
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].kind, ("a".to_string(), Some("q".to_string())));
        assert_eq!((s.events[0].index, s.events[0].count), (3, 2));
        assert_eq!(s.events[1].kind, ("b".to_string(), None));
        assert_eq!((s.events[1].index, s.events[1].count), (1, 1));
    }

    #[test]
    fn errors_name_the_variable() {
        for bad in ["a", "a@0", "a@x", "a@2x0", "bad@1", "seed=-1", "rank=q"] {
            let e = parse_spec(&RANKED, bad, any_kind).unwrap_err();
            assert!(e.to_string().starts_with("invalid TERASEM_TEST_FAULT spec: "), "{e}");
        }
    }

    #[test]
    fn unarmed_sites_never_fire() {
        let _g = crate::test_guard();
        drain();
        assert!(!any_armed());
        for site in FaultSite::ALL {
            assert!(!fire(site));
        }
        assert_eq!(drain(), Fired::default());
    }

    #[test]
    fn armed_site_fires_exactly_once_and_reports() {
        let _g = crate::test_guard();
        let prev = crate::enabled();
        crate::set_enabled(true);
        drain();
        crate::counters::reset_counters();
        arm(FaultSite::PressureOperator);
        assert!(any_armed());
        // Wrong site: untouched.
        assert!(!fire(FaultSite::GsExchange));
        assert!(fire(FaultSite::PressureOperator));
        assert!(!fire(FaultSite::PressureOperator), "one-shot");
        assert!(!any_armed());
        assert_eq!(crate::counters::get(crate::Counter::FaultsInjected), 1);
        let fired = drain();
        assert!(fired.contains(FaultSite::PressureOperator));
        assert!(!fired.contains(FaultSite::GsExchange));
        assert!(!drain().contains(FaultSite::PressureOperator), "drained");
        crate::set_enabled(prev);
    }

    #[test]
    fn stacked_armings_fire_stacked_times() {
        let _g = crate::test_guard();
        drain();
        arm(FaultSite::ProjectionUpdate);
        arm(FaultSite::ProjectionUpdate);
        assert!(fire(FaultSite::ProjectionUpdate));
        assert!(any_armed());
        assert!(fire(FaultSite::ProjectionUpdate));
        assert!(!fire(FaultSite::ProjectionUpdate));
        drain();
    }

    #[test]
    fn drain_disarms_and_reports_only_what_fired() {
        let _g = crate::test_guard();
        drain();
        arm(FaultSite::GsExchange);
        assert!(fire(FaultSite::GsExchange));
        arm(FaultSite::PressurePrecond);
        let fired = drain();
        assert!(fired.contains(FaultSite::GsExchange));
        assert!(!fired.contains(FaultSite::PressurePrecond), "armed is not fired");
        assert!(!any_armed());
        assert!(!fire(FaultSite::PressurePrecond), "drain disarms");
    }

    #[test]
    fn site_names_are_the_spec_kinds() {
        let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["indef_op", "indef_pc", "proj", "gs", "coarse"]);
        for s in FaultSite::ALL {
            assert_eq!(FaultSite::from_name(s.name()), Some(s));
        }
        assert_eq!(FaultSite::from_name("nan"), None);
    }
}
