//! `perfbench`: the fixed-workload benchmark of the terasem solver.
//!
//! ```text
//! perfbench --workload <hairpin|rayleigh-benard|shear-service> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs the named workload for `--seconds` seconds as repeated
//! closed-loop runs to a fixed step count from the seeded initial
//! condition, gates every final state, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. README.md documents
//! the workloads, the metrics and what each layer should move.

mod gate;
mod layers;
mod stats;
mod workloads;

use sem_obs::json::JsonObj;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Perturbation, Rep, Workload};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Metric and workload names: `[A-Za-z0-9_.-]+`, at most 64 characters,
/// starting with a letter or a digit.
pub fn well_formed_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Extra solver constructions timed before each repetition (whose own
/// construction is one more `setup_s` sample), so that the set-up
/// samples spread over the whole run like the step samples do.
const SETUP_PER_REP: usize = 2;
/// Steps a run collects at least, so that `step_ms_p90` has ten samples
/// beyond it.
const MIN_STEPS: u64 = 100;
/// Wall seconds after which a run stops starting repetitions, whatever
/// it still lacks, so that it always ends within three minutes.
const DEADLINE_S: f64 = 120.0;

/// Has a run started at `t0` passed its deadline?
pub fn overdue(t0: Instant) -> bool {
    t0.elapsed().as_secs_f64() > DEADLINE_S
}

const USAGE: &str = "usage: perfbench --workload <hairpin|rayleigh-benard|shear-service> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("a workload name"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("seconds in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

/// The untraced run's measurements.
#[derive(Default)]
struct Untraced {
    setup_s: Vec<f64>,
    reps: Vec<Rep>,
    peak_rss_mb: f64,
}

/// The untraced run: repetitions (each preceded by extra set-up samples)
/// until `seconds` have passed and at least [`MIN_STEPS`] steps were
/// attempted.
fn untraced(a: &Args, dir: &Path) -> io::Result<Untraced> {
    let w = a.workload;
    let mut u = Untraced::default();
    let p = Perturbation::new(a.seed);
    let t0 = Instant::now();
    let mut attempted = 0;
    while u.reps.is_empty()
        || ((t0.elapsed().as_secs_f64() < a.seconds || attempted < MIN_STEPS) && !overdue(t0))
    {
        for i in 0..SETUP_PER_REP {
            let job = dir.join(format!("setup{i}"));
            let t = Instant::now();
            let built = workloads::build(w, &p, &job)?;
            u.setup_s.push(t.elapsed().as_secs_f64());
            drop(built);
            let _ = std::fs::remove_dir_all(&job);
        }
        let job = dir.join(format!("rep{}", u.reps.len()));
        let (rep, _) = workloads::run_rep(w, a.seed, &job)?;
        let _ = std::fs::remove_dir_all(&job);
        attempted += rep.attempted;
        u.setup_s.push(rep.setup_s);
        u.reps.push(rep);
    }
    u.peak_rss_mb = peak_rss_mb()?;
    Ok(u)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(u: &Untraced) -> Vec<Metric> {
    let samples: Vec<f64> = u
        .reps
        .iter()
        .flat_map(|r| r.step_s.iter().copied())
        .collect();
    let run_s: Vec<f64> = u.reps.iter().map(|r| r.run_s).collect();
    let p90 = stats::p90(&samples).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        f64::NAN
    });
    let (attempted, failed) = totals(&u.reps);
    vec![
        metric("setup_s", "s", stats::median(&u.setup_s)),
        metric("run_s", "s", stats::median(&run_s)),
        metric("step_ms", "ms", 1e3 * stats::median(&samples)),
        metric("step_ms_p90", "ms", 1e3 * p90),
        metric("peak_rss_mb", "MB", u.peak_rss_mb),
        metric(
            "step_ok_frac",
            "ratio",
            1.0 - failed as f64 / attempted as f64,
        ),
    ]
}

fn totals(reps: &[Rep]) -> (u64, u64) {
    reps.iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed))
}

/// Print the gate's verdict on each repetition.
fn print_gate(reps: &[Rep]) {
    for (i, r) in reps.iter().enumerate() {
        let s = &r.state;
        let scalar = s
            .scalar_l2
            .map_or(String::new(), |v| format!(" scalar_l2={v:.9e}"));
        let verdict = r.rejected.as_deref().unwrap_or("pass");
        println!(
            "rep {i}: run_s={:.4} ke={:.9e}{scalar} div={:.3e} p_iters={} -> {verdict}",
            r.run_s,
            s.ke,
            s.div,
            r.stats.iter().map(|st| st.pressure_iters).sum::<usize>()
        );
    }
}

/// The result line: `{"correct","attempted","failed","metrics"}`.
fn result_json(reps: &[Rep], metrics: &[Metric]) -> String {
    let (attempted, failed) = totals(reps);
    let mut m = JsonObj::new();
    for x in metrics {
        let mut v = JsonObj::new();
        v.f64("value", x.value).str("unit", x.unit);
        m.obj(x.name, v);
    }
    let mut o = JsonObj::new();
    o.bool("correct", reps.iter().all(|r| r.rejected.is_none()))
        .u64("attempted", attempted)
        .u64("failed", failed)
        .obj("metrics", m);
    o.finish()
}

fn run(a: &Args, dir: &Path) -> io::Result<String> {
    let w = a.workload;
    let (reps, metrics) = if a.trace {
        let t = layers::run(w, a.seed, a.seconds, dir)?;
        let m = layers::metrics(&t);
        let mut snap = sem_bench::snapshot::Snapshot::new(&format!("perfbench_{}", w.name()));
        snap.threads(w.threads() as u64);
        for x in &m {
            snap.entry(x.name).label(x.unit).num("value", x.value);
        }
        println!("BENCH {}", snap.to_json());
        println!(
            "{} traced / {} untraced repetitions of {} steps",
            t.traced.len(),
            t.untraced.len(),
            w.steps()
        );
        let mut reps = t.untraced;
        reps.extend(t.traced);
        (reps, m)
    } else {
        let u = untraced(a, dir)?;
        let steps: usize = u.reps.iter().map(|r| r.step_s.len()).sum();
        println!(
            "{} repetitions of {} steps; {steps} step samples, {} setup samples",
            u.reps.len(),
            w.steps(),
            u.setup_s.len()
        );
        let m = end_to_end(&u);
        (u.reps, m)
    };
    print_gate(&reps);
    for x in &metrics {
        println!("{:<26} {:>16.6} {}", x.name, x.value, x.unit);
    }
    Ok(result_json(&reps, &metrics))
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let dir: PathBuf = work.join(format!("{}-{}", a.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = sem_comm::par::with_threads(a.workload.threads(), || run(&a, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    // Leaves the work area only when no other run is using it.
    let _ = std::fs::remove_dir(&work);
    match out {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_obs::json::Json;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Json::parse(&text).unwrap();
        let items = doc.get(section).and_then(Json::as_arr).unwrap();
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_are_well_formed_and_match_benchmark_json() {
        let u = Untraced {
            setup_s: vec![0.1],
            reps: vec![Rep {
                attempted: 100,
                run_s: 1.0,
                step_s: vec![0.01; 100],
                ..Rep::default()
            }],
            peak_rss_mb: 1.0,
        };
        let e2e = end_to_end(&u);
        let layer = layers::metrics(&layers::Traced::default());
        for m in e2e.iter().chain(layer.iter()) {
            assert!(well_formed_name(m.name), "{}", m.name);
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        assert_eq!(printed(&e2e), declared("end_to_end"));
        assert_eq!(printed(&layer), declared("per_layer"));
        let mut names: Vec<&str> = e2e.iter().chain(layer.iter()).map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), e2e.len() + layer.len(), "a name is used twice");
    }

    #[test]
    fn names_outside_the_alphabet_are_refused() {
        assert!(well_formed_name("solvers.pressure_cg_ms"));
        assert!(well_formed_name("rayleigh-benard"));
        assert!(!well_formed_name(""));
        assert!(!well_formed_name(".hidden"));
        assert!(!well_formed_name("ops.e_apply_µs"));
        assert!(!well_formed_name("step ms"));
        assert!(!well_formed_name(&"x".repeat(65)));
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload hairpin --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Hairpin, 3, 10.0, true)
        );
        assert!(parse("--workload fig8 --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload hairpin --seed -1 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload hairpin --seed 3 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload hairpin --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload hairpin --seed 3 --seconds 10").is_err());
        assert!(parse("--workload hairpin --seed 3 --seconds 10 --trace 0 --extra").is_err());
    }
}
