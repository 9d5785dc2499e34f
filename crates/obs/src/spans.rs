//! Scoped wall-time spans over the solver phases.
//!
//! [`span`]`(Phase::X)` returns a guard; when the guard drops, the
//! elapsed wall time is added to the phase's accumulator in a
//! process-global, thread-safe registry (relaxed atomics — same model as
//! [`crate::counters`]), to the phase's latency histogram
//! ([`crate::hist`]), and — when event tracing is on — a begin/end event
//! pair is recorded in the per-thread trace buffer ([`crate::trace`]).
//! Spans nest freely: a [`Phase::Schwarz`] span naturally contains the
//! [`Phase::CoarseSolve`] span of its coarse component.
//!
//! ## Inclusive semantics
//!
//! Phase totals are **inclusive**: a phase's accumulated time contains
//! the time of every phase nested inside it (`Step` ⊃ `PressureCg` ⊃
//! `Schwarz` ⊃ `CoarseSolve`, …). Summing phase totals therefore counts
//! nested work more than once; to get *exclusive* (self) times, subtract
//! the inclusive totals of a phase's children, which [`Phase::parent`]
//! makes mechanical — the `sem-report` tool does exactly that for its
//! per-phase table.
//!
//! ## Cost
//!
//! While metrics are disabled the guard holds no timestamp and drop does
//! nothing, so the cost is one relaxed load per scope. With metrics on,
//! every phase is recorded: self times are inclusive time minus the
//! children's, so a phase left out would silently inflate its parent's.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The instrumented solver phases (§4–§5 of the paper: one entry per
/// line of its per-phase timing breakdowns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Convective term: EXT evaluation or OIFS characteristic
    /// subintegration.
    Convection,
    /// OIFS RK4 characteristic subintegration (nested inside
    /// [`Phase::Convection`] when the OIFS scheme is active).
    Oifs,
    /// Velocity (and temperature) Helmholtz solves.
    Helmholtz,
    /// Successive-RHS projection (project + history update).
    PressureProjection,
    /// Pressure CG iteration on the consistent Poisson operator `E`.
    PressureCg,
    /// Additive Schwarz preconditioner application (local solves).
    Schwarz,
    /// Coarse-grid solve component of the preconditioner.
    CoarseSolve,
    /// Once-per-step filter stabilization of velocity/temperature/species.
    Filter,
    /// One full timestep.
    Step,
}

/// Number of phases.
pub const NUM_PHASES: usize = 9;

impl Phase {
    /// All phases, in declaration order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Convection,
        Phase::Oifs,
        Phase::Helmholtz,
        Phase::PressureProjection,
        Phase::PressureCg,
        Phase::Schwarz,
        Phase::CoarseSolve,
        Phase::Filter,
        Phase::Step,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Convection => "convection",
            Phase::Oifs => "oifs",
            Phase::Helmholtz => "helmholtz",
            Phase::PressureProjection => "pressure_projection",
            Phase::PressureCg => "pressure_cg",
            Phase::Schwarz => "schwarz",
            Phase::CoarseSolve => "coarse_solve",
            Phase::Filter => "filter",
            Phase::Step => "step",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn parse(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The phase this phase's spans nest inside (the static span-nesting
    /// tree of the solver): `None` for the root [`Phase::Step`]. Used to
    /// derive exclusive (self) times from the inclusive totals:
    /// `excl(p) = incl(p) − Σ_{c: parent(c)=p} incl(c)`.
    pub fn parent(self) -> Option<Phase> {
        match self {
            Phase::Step => None,
            Phase::Convection => Some(Phase::Step),
            Phase::Oifs => Some(Phase::Convection),
            Phase::Helmholtz => Some(Phase::Step),
            Phase::PressureProjection => Some(Phase::Step),
            Phase::PressureCg => Some(Phase::Step),
            Phase::Schwarz => Some(Phase::PressureCg),
            Phase::CoarseSolve => Some(Phase::Schwarz),
            Phase::Filter => Some(Phase::Step),
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static NANOS: [AtomicU64; NUM_PHASES] = [ZERO; NUM_PHASES];
static CALLS: [AtomicU64; NUM_PHASES] = [ZERO; NUM_PHASES];

/// Open a span over `phase`; the elapsed time is recorded when the
/// returned guard drops. Free while metrics are disabled.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    let start = crate::enabled().then(Instant::now);
    if start.is_some() {
        crate::trace::begin(phase);
    }
    SpanGuard { phase, start }
}

/// Guard returned by [`span`]; records on drop.
#[must_use = "a span records its time when the guard is dropped"]
pub struct SpanGuard {
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            NANOS[self.phase as usize].fetch_add(ns, Ordering::Relaxed);
            CALLS[self.phase as usize].fetch_add(1, Ordering::Relaxed);
            crate::hist::record(self.phase, ns);
            crate::trace::end(self.phase);
        }
    }
}

/// Accumulated inclusive wall time of `phase`, in seconds.
pub fn phase_seconds(phase: Phase) -> f64 {
    NANOS[phase as usize].load(Ordering::Relaxed) as f64 * 1e-9
}

/// Number of completed spans of `phase`.
pub fn phase_calls(phase: Phase) -> u64 {
    CALLS[phase as usize].load(Ordering::Relaxed)
}

/// Zero every span accumulator.
pub fn reset_spans() {
    for (n, c) in NANOS.iter().zip(CALLS.iter()) {
        n.store(0, Ordering::Relaxed);
        c.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the span registry.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanSnapshot {
    nanos: [u64; NUM_PHASES],
    calls: [u64; NUM_PHASES],
}

impl SpanSnapshot {
    /// Inclusive seconds of `phase` in this snapshot.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.nanos[phase as usize] as f64 * 1e-9
    }

    /// Completed spans of `phase` in this snapshot.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase as usize]
    }

    /// Per-phase difference `self − earlier` (saturating).
    pub fn delta(&self, earlier: &SpanSnapshot) -> SpanSnapshot {
        let mut out = SpanSnapshot::default();
        for i in 0..NUM_PHASES {
            out.nanos[i] = self.nanos[i].saturating_sub(earlier.nanos[i]);
            out.calls[i] = self.calls[i].saturating_sub(earlier.calls[i]);
        }
        out
    }
}

/// Snapshot the span registry.
pub fn span_snapshot() -> SpanSnapshot {
    let mut out = SpanSnapshot::default();
    for i in 0..NUM_PHASES {
        out.nanos[i] = NANOS[i].load(Ordering::Relaxed);
        out.calls[i] = CALLS[i].load(Ordering::Relaxed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < us as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn nested_spans_accumulate_inclusively() {
        let _g = crate::test_guard();
        let prev = crate::enabled();
        crate::set_enabled(true);
        reset_spans();
        {
            let _outer = span(Phase::Schwarz);
            spin(200);
            {
                let _inner = span(Phase::CoarseSolve);
                spin(200);
            }
        }
        assert_eq!(phase_calls(Phase::Schwarz), 1);
        assert_eq!(phase_calls(Phase::CoarseSolve), 1);
        // Inclusive timing: the outer span contains the inner one.
        assert!(
            phase_seconds(Phase::Schwarz) >= phase_seconds(Phase::CoarseSolve),
            "outer {} < inner {}",
            phase_seconds(Phase::Schwarz),
            phase_seconds(Phase::CoarseSolve)
        );
        assert!(phase_seconds(Phase::CoarseSolve) > 0.0);
        crate::set_enabled(prev);
        reset_spans();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = crate::test_guard();
        let prev = crate::enabled();
        crate::set_enabled(false);
        reset_spans();
        {
            let _s = span(Phase::Helmholtz);
            spin(50);
        }
        assert_eq!(phase_calls(Phase::Helmholtz), 0);
        assert_eq!(phase_seconds(Phase::Helmholtz), 0.0);
        crate::set_enabled(prev);
    }

    #[test]
    fn phase_list_parsing() {
        // Round-trip every phase name.
        for p in Phase::ALL {
            assert_eq!(Phase::parse(p.name()), Some(p));
        }
        assert_eq!(Phase::parse("nope"), None);
    }

    #[test]
    fn parent_tree_is_rooted_at_step() {
        // Every phase walks up to Step without cycles.
        for p in Phase::ALL {
            let mut cur = p;
            let mut hops = 0;
            while let Some(up) = cur.parent() {
                cur = up;
                hops += 1;
                assert!(hops <= NUM_PHASES, "cycle in parent() at {p:?}");
            }
            assert_eq!(cur, Phase::Step, "{p:?} does not root at Step");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for p in Phase::ALL {
            assert!(seen.insert(p.name()), "duplicate phase name {}", p.name());
        }
    }
}
