//! The correctness gate: a repetition's timings count only when its
//! final state passes. The reference values were measured at this
//! benchmark's introduction; the tolerances admit every seed's small
//! perturbation and bit-changing numerics, and reject a wrong answer.

use crate::workloads::{ckpt_dir, Rep, Runner, Workload};
use sem_ns::checkpoint::Checkpoint;
use sem_ns::diagnostics::{divergence_norm, field_health, kinetic_energy};
use sem_ns::{NsConfig, NsSolver, RunSupervisor, StepStats};
use sem_ops::fields::norm_l2;
use std::io;
use std::path::Path;

/// What a correct final state of a workload looks like.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    /// Kinetic energy `½∫|u|²` and its relative tolerance.
    pub ke: (f64, f64),
    /// L² norm of the transported scalar (temperature or dye) and its
    /// relative tolerance.
    pub scalar: Option<(f64, f64)>,
    /// Upper bound on the L² norm of the pointwise divergence.
    pub div_max: f64,
}

/// The reference final state of each workload after its fixed step
/// count. Across seeds the norms spread by ~1e-5 relative (1.2% for the
/// Rayleigh–Bénard kinetic energy, which the convective instability
/// amplifies), so the tolerances sit well above the seed spread yet far
/// below what a missing term or an unconverged solve does; the
/// divergence bounds are 20–30% above the measured values.
pub fn reference(w: Workload) -> Reference {
    match w {
        Workload::Hairpin => Reference {
            ke: (20.4499, 1e-3),
            scalar: None,
            div_max: 0.15,
        },
        Workload::RayleighBenard => Reference {
            ke: (9.68, 5e-2),
            scalar: Some((0.816512, 1e-3)),
            div_max: 3e-3,
        },
        Workload::ShearService => Reference {
            ke: (0.43391, 1e-3),
            scalar: Some((0.497693, 1e-3)),
            div_max: 3e-5,
        },
    }
}

/// The gate's measurements of a final state.
#[derive(Clone, Debug, Default)]
pub struct FinalState {
    /// Kinetic energy.
    pub ke: f64,
    /// L² norm of the temperature or the first passive scalar.
    pub scalar_l2: Option<f64>,
    /// L² norm of the pointwise divergence.
    pub div: f64,
    /// The first field holding a NaN or Inf, if any.
    pub nonfinite: Option<String>,
}

impl FinalState {
    /// Measure the solver's current state.
    pub fn of(s: &NsSolver) -> FinalState {
        const COMP: [&str; 3] = ["u", "v", "w"];
        let mut fields: Vec<(&str, &[f64])> = s
            .vel
            .iter()
            .enumerate()
            .map(|(c, v)| (COMP[c], v.as_slice()))
            .collect();
        fields.push(("p", &s.pressure));
        if let Some(t) = &s.temp {
            fields.push(("T", t));
        }
        for i in 0..s.num_scalars() {
            fields.push((s.scalar_name(i), s.scalar(i)));
        }
        let scalar = match &s.temp {
            Some(t) => Some(t.as_slice()),
            None => (s.num_scalars() > 0).then(|| s.scalar(0)),
        };
        FinalState {
            ke: kinetic_energy(&s.ops, &s.vel),
            scalar_l2: scalar.map(|t| norm_l2(&s.ops, t)),
            div: divergence_norm(&s.ops, &s.vel),
            nonfinite: field_health(fields).map(|v| v.to_string()),
        }
    }

    /// Compare against a reference.
    pub fn verify(&self, r: &Reference) -> Result<(), String> {
        if let Some(v) = &self.nonfinite {
            return Err(v.clone());
        }
        let off = |what: &str, got: f64, (want, rtol): (f64, f64)| {
            let rel = (got - want).abs() / want.abs();
            // Written so that a NaN measurement fails too.
            if rel <= rtol {
                Ok(())
            } else {
                Err(format!(
                    "{what} {got:.6e} is {rel:.2e} from the reference {want:.6e} (tolerance {rtol:.0e})"
                ))
            }
        };
        off("kinetic energy", self.ke, r.ke)?;
        match (self.scalar_l2, r.scalar) {
            (Some(got), Some(want)) => off("scalar L2 norm", got, want)?,
            (None, Some(_)) => return Err("the transported scalar is missing".into()),
            _ => {}
        }
        if self.div <= r.div_max {
            Ok(())
        } else {
            Err(format!(
                "divergence L2 norm {:.3e} exceeds {:.1e}",
                self.div, r.div_max
            ))
        }
    }
}

/// Did every solve of the step converge? The pressure solve reports it;
/// a Helmholtz or scalar solve that ran to its iteration cap did not.
pub fn solves_converged(st: &StepStats, cfg: &NsConfig) -> bool {
    let cap = cfg.helmholtz_cg.max_iter;
    st.pressure_converged && st.helmholtz_iters.iter().all(|&i| i < cap) && st.temp_iters < cap
}

/// Gate one repetition: every step committed, the final state matches
/// the reference, and — for the service — the newest checkpoint restores
/// the final state exactly and no staging file was left behind. `fresh`
/// builds an identically configured job to restore into.
pub fn check(
    w: Workload,
    runner: &Runner,
    rep: &Rep,
    dir: &Path,
    fresh: impl FnOnce() -> io::Result<RunSupervisor>,
) -> (FinalState, Result<(), String>) {
    let s = runner.solver();
    let state = FinalState::of(s);
    let verdict = if rep.stats.len() as u64 != rep.attempted {
        Err(format!(
            "{} of {} steps committed",
            rep.stats.len(),
            rep.attempted
        ))
    } else {
        state.verify(&reference(w)).and_then(|()| match runner {
            Runner::Service(_) => checkpoint_restores(s, rep, dir, fresh),
            Runner::Loop(_) => Ok(()),
        })
    };
    (state, verdict)
}

fn checkpoint_restores(
    s: &NsSolver,
    rep: &Rep,
    dir: &Path,
    fresh: impl FnOnce() -> io::Result<RunSupervisor>,
) -> Result<(), String> {
    if rep.stray_tmp > 0 {
        return Err(format!(
            "{} stray .tmp file(s) in the checkpoint directory",
            rep.stray_tmp
        ));
    }
    let &(step, _) = rep
        .checkpoints
        .last()
        .ok_or("no checkpoint was committed")?;
    if step != s.step_index as u64 {
        return Err(format!(
            "the newest checkpoint is of step {step}, the final state of step {}",
            s.step_index
        ));
    }
    let path = ckpt_dir(dir).join(format!("ckpt_{step:08}.ckpt"));
    let ck = Checkpoint::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut sup = fresh().map_err(|e| format!("rebuilding the job: {e}"))?;
    sup.solver_mut().restore_checkpoint(&ck)?;
    if sup.solver().checkpoint() == s.checkpoint() {
        Ok(())
    } else {
        Err(format!(
            "{} does not restore the final state",
            path.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_bench::workloads::rayleigh_benard;

    #[test]
    fn the_gate_rejects_a_final_state_with_one_corrupted_node() {
        let mut s = rayleigh_benard(4, 2, 5, 1e5, 0.71, 8, 2e-4, 1e-7);
        for _ in 0..3 {
            s.step().unwrap();
        }
        let clean = FinalState::of(&s);
        let r = Reference {
            ke: (clean.ke, 1e-3),
            scalar: Some((clean.scalar_l2.unwrap(), 1e-3)),
            div_max: 2.0 * clean.div,
        };
        assert_eq!(clean.verify(&r), Ok(()));

        // An element-interior node: the one carrying the most mass.
        let bm = &s.ops.geo.bm;
        let mid = (0..bm.len())
            .max_by(|&a, &b| bm[a].total_cmp(&bm[b]))
            .unwrap();
        let saved = s.vel[0][mid];
        s.vel[0][mid] = f64::NAN;
        let err = FinalState::of(&s).verify(&r).unwrap_err();
        assert!(err.contains("`u`"), "{err}");

        s.vel[0][mid] = saved + 1.0;
        assert!(
            FinalState::of(&s).verify(&r).is_err(),
            "a finite spike passed"
        );
        s.vel[0][mid] = saved;

        let t = s.temp.as_mut().unwrap();
        t[mid] += 1.0;
        assert!(
            FinalState::of(&s).verify(&r).is_err(),
            "a temperature spike passed"
        );
    }
}
