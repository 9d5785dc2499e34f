//! `sem-report`: replay a run's metrics JSON-lines into human tables.
//!
//! Input: a file of per-step `terasem.step` records — either a file-sink
//! capture (`TERASEM_METRICS_SINK=file:run.jsonl`) or a saved stdout log
//! (the legacy `JSON ` prefix is stripped automatically, so
//! `./fig3_shear_layer --smoke > log && sem-report log` works).
//!
//! Output, in the spirit of the paper's Table 2 per-phase breakdown:
//!
//! 1. a **per-phase table** — calls, inclusive seconds, exclusive (self)
//!    seconds derived from the static phase nesting tree, percent of
//!    step time, and p50/p90/p99/max latencies from the merged
//!    log-bucket histograms;
//! 2. a **per-step trajectory** — pressure CG iterations, projection
//!    depth, Helmholtz iterations, CFL, OIFS substeps per Δt (`subs`;
//!    0 under EXT, `-` in pre-v6 logs), and wall time per step (the
//!    Fig. 4 iteration-decay view);
//! 3. a **counter summary** — including `cg_breakdowns` and
//!    `projection_dropped`, the silent-failure counters.
//!
//! `--chrome <out.json>` additionally synthesizes a Chrome trace-event
//! file (complete `"X"` events, one lane per phase, steps laid out on
//! the recorded wall-time axis) loadable in `chrome://tracing`/Perfetto.
//! This is derived from the per-step span deltas; for true intra-step
//! event timelines record with `TERASEM_TRACE=<path>` instead.
//!
//! `--strict` turns the report into a health gate for CI: after the
//! tables it exits with status 4 if the run shows any CG breakdowns,
//! dropped projection updates, or sem-guard recovery rollbacks — the
//! three "the solver survived, but something went wrong" signals — and
//! with status 5 if a `terasem.run` summary record says the run *ended*
//! in an unrecovered error (transient-but-recovered is 4; gave-up is 5).
//!
//! `--ranks <terasem.ranks>` switches to the multi-rank view — the
//! paper's Table 2 taken at scale, from the per-rank telemetry records a
//! `terasem-launch --telemetry` job ships to rank 0:
//!
//! 1. per-phase **min/mean/max across ranks** with the per-phase
//!    imbalance factor `max/mean`;
//! 2. the **measured communication fraction** (from the per-op-class
//!    `(bytes, secs)` samples every rank records) against two α–β
//!    `MachineModel` predictions — one fitted to the pooled samples,
//!    one the ASCI-Red-333 preset;
//! 3. the **network-resilience counters** — injected net faults,
//!    CRC-rejected frames, retransmits, reconnects, missed heartbeats —
//!    whenever any rank reports a nonzero value;
//! 4. a **parallel-efficiency estimate**: against a single-rank
//!    reference log (`--ref`), or compute-only (`step − comm`) when no
//!    reference is given.
//!
//! With `--strict`, `--ranks` additionally gates on load imbalance: exit
//! 6 when the step-phase imbalance factor exceeds `--max-imbalance`
//! (default 2.0).

use sem_comm::{fit_alpha_beta, MachineModel};
use sem_ns::supervisor::RUN_RECORD_TYPE;
use sem_obs::exit;
use sem_obs::hist::{quantile_from_buckets, HistSnapshot, NUM_BUCKETS};
use sem_obs::json::Json;
use sem_obs::record::{RANK_RECORD_TYPE, SERVE_RECORD_TYPE, STEP_RECORD_TYPE};
use sem_obs::spans::{Phase, NUM_PHASES};

struct StepRow {
    step: u64,
    time: f64,
    cfl: f64,
    oifs_substeps: Option<u64>,
    seconds: f64,
    pressure_iterations: u64,
    pressure_final_residual: f64,
    projection_depth: u64,
    recoveries: u64,
    recovery_trail: Vec<String>,
    helmholtz_iterations: Vec<u64>,
    span_delta_seconds: [f64; NUM_PHASES],
    span_delta_calls: [u64; NUM_PHASES],
    latency: HistSnapshot,
}

/// One end-of-run `terasem.run` summary record (sem-run supervisor).
struct RunSummary {
    outcome: String,
    steps: u64,
    step_errors: u64,
    checkpoints_written: u64,
    resumed: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<&str> = None;
    let mut chrome: Option<&str> = None;
    let mut ranks_path: Option<&str> = None;
    let mut ref_path: Option<&str> = None;
    let mut strict = false;
    let mut max_imbalance = 2.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chrome" => {
                if i + 1 >= args.len() {
                    usage_and_exit();
                }
                chrome = Some(&args[i + 1]);
                i += 2;
            }
            "--ranks" => {
                if i + 1 >= args.len() {
                    usage_and_exit();
                }
                ranks_path = Some(&args[i + 1]);
                i += 2;
            }
            "--ref" => {
                if i + 1 >= args.len() {
                    usage_and_exit();
                }
                ref_path = Some(&args[i + 1]);
                i += 2;
            }
            "--max-imbalance" => {
                if i + 1 >= args.len() {
                    usage_and_exit();
                }
                max_imbalance = match args[i + 1].parse::<f64>() {
                    Ok(x) if x > 0.0 => x,
                    _ => usage_and_exit(),
                };
                i += 2;
            }
            "--strict" => {
                strict = true;
                i += 1;
            }
            "-h" | "--help" => usage_and_exit(),
            a if path.is_none() && !a.starts_with('-') => {
                path = Some(a);
                i += 1;
            }
            _ => usage_and_exit(),
        }
    }
    if let Some(rp) = ranks_path {
        ranks_main(rp, ref_path, strict, max_imbalance);
    }
    let Some(path) = path else { usage_and_exit() };

    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("sem-report: cannot read {path}: {e}");
            std::process::exit(exit::FAILURE);
        }
    };

    let mut rows: Vec<StepRow> = Vec::new();
    let mut runs: Vec<RunSummary> = Vec::new();
    let mut serve: Vec<Json> = Vec::new();
    let mut skipped = 0usize;
    let mut last_counters: Option<Vec<(String, u64)>> = None;
    for line in body.lines() {
        let line = line.trim();
        let line = line.strip_prefix("JSON ").unwrap_or(line);
        if line.is_empty() || !line.starts_with('{') {
            continue;
        }
        let Some(v) = Json::parse(line) else {
            skipped += 1;
            continue;
        };
        if v.get("type").and_then(Json::as_str) == Some(SERVE_RECORD_TYPE) {
            serve.push(v);
            continue;
        }
        if v.get("type").and_then(Json::as_str) == Some(RUN_RECORD_TYPE) {
            runs.push(RunSummary {
                outcome: v
                    .get("outcome")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                steps: v.get("steps").and_then(Json::as_u64).unwrap_or(0),
                step_errors: v.get("step_errors").and_then(Json::as_u64).unwrap_or(0),
                checkpoints_written: v
                    .get("checkpoints_written")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                resumed: v.get("resumed").and_then(Json::as_bool).unwrap_or(false),
            });
            continue;
        }
        if v.get("type").and_then(Json::as_str) != Some(STEP_RECORD_TYPE) {
            continue;
        }
        match parse_row(&v) {
            Some(row) => {
                if let Some(counters) = v.get("counters").and_then(Json::as_obj) {
                    last_counters = Some(
                        counters
                            .iter()
                            .filter_map(|(k, c)| c.as_u64().map(|n| (k.clone(), n)))
                            .collect(),
                    );
                }
                rows.push(row);
            }
            None => skipped += 1,
        }
    }
    if rows.is_empty() {
        // A service journal (`sem-serve`'s serve.jsonl) has no step
        // records at all — the service summary is the whole report.
        if !serve.is_empty() {
            print_serve(&serve);
            std::process::exit(exit::OK);
        }
        eprintln!("sem-report: no {STEP_RECORD_TYPE} records in {path} ({skipped} unparsable line(s))");
        std::process::exit(exit::FAILURE);
    }
    rows.sort_by_key(|r| r.step);
    if skipped > 0 {
        eprintln!("sem-report: warning: skipped {skipped} unparsable line(s)");
    }

    println!(
        "sem-report: {} steps from {path} (t = {:.6} .. {:.6})",
        rows.len(),
        rows.first().unwrap().time,
        rows.last().unwrap().time
    );
    println!();
    print_phase_table(&rows);
    println!();
    print_trajectory(&rows);
    if let Some(counters) = &last_counters {
        println!();
        print_counters(counters);
    }
    if !runs.is_empty() {
        println!();
        print_runs(&runs);
    }
    if !serve.is_empty() {
        println!();
        print_serve(&serve);
    }
    if let Some(out) = chrome {
        match std::fs::write(out, chrome_from_rows(&rows)) {
            Ok(()) => println!("\nChrome trace written to {out} (open in chrome://tracing or Perfetto)"),
            Err(e) => {
                eprintln!("sem-report: cannot write {out}: {e}");
                std::process::exit(exit::FAILURE);
            }
        }
    }
    if strict {
        strict_gate(&rows, &runs, last_counters.as_deref());
    }
}

/// `--strict`: exit 5 if a run record says the run gave up; exit 4 if
/// the run completed but shows breakdowns, dropped projection updates,
/// or recovery rollbacks. Counter totals (cumulative at the last
/// record) are preferred; per-record `recoveries` (schema v3) is a
/// fallback so pre-counter logs still gate on recovery events.
fn strict_gate(rows: &[StepRow], runs: &[RunSummary], counters: Option<&[(String, u64)]>) -> ! {
    let from_counters = |name: &str| -> Option<u64> {
        counters?.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    };
    let breakdowns = from_counters("cg_breakdowns").unwrap_or(0);
    let dropped = from_counters("projection_dropped").unwrap_or(0);
    let recoveries = from_counters("recoveries")
        .unwrap_or_else(|| rows.iter().map(|r| r.recoveries).sum());
    let clean = breakdowns == 0 && dropped == 0 && recoveries == 0;
    let gave_up = runs.iter().any(|r| r.outcome != "completed");
    println!();
    println!(
        "strict: {breakdowns} CG breakdown(s), {dropped} dropped projection update(s), \
         {recoveries} recovery rollback(s)"
    );
    if gave_up {
        println!("strict: FAIL — run ended in an unrecovered error (gave up)");
        std::process::exit(exit::REPORT_GAVE_UP);
    }
    if clean {
        println!("strict: PASS");
        std::process::exit(exit::OK);
    }
    println!("strict: FAIL — run required solver intervention");
    std::process::exit(exit::REPORT_UNHEALTHY);
}

/// The "Service summary" section: aggregate a `sem-serve` journal's
/// `terasem.serve` lifecycle records — admission/rejection totals with
/// the rejection rate (how hard admission control worked), retry and
/// preemption counts (how rough the run was), drain bookkeeping, and
/// the final gauges from the last record.
fn print_serve(records: &[Json]) {
    let count_event = |name: &str| -> usize {
        records
            .iter()
            .filter(|v| {
                v.get("event")
                    .and_then(Json::as_str)
                    .is_some_and(|e| e == name)
            })
            .count()
    };
    let last = records.last().expect("non-empty");
    let gauge = |key: &str| last.get(key).and_then(Json::as_u64).unwrap_or(0);
    println!("Service summary ({SERVE_RECORD_TYPE}):");
    println!("  lifecycle events       {:>8}", records.len());
    let admitted = gauge("jobs_admitted");
    let rejected = gauge("jobs_rejected");
    println!("  jobs admitted          {admitted:>8}");
    let total = admitted + rejected;
    if total > 0 {
        println!(
            "  jobs rejected          {rejected:>8}  ({:.1}% of {} submission(s))",
            100.0 * rejected as f64 / total as f64,
            total
        );
    } else {
        println!("  jobs rejected          {rejected:>8}");
    }
    println!("  jobs completed         {:>8}", gauge("jobs_completed"));
    println!("  crash retries          {:>8}", gauge("jobs_retried"));
    println!("  drain preemptions      {:>8}", gauge("jobs_preempted"));
    println!("  job failures           {:>8}", count_event("failed"));
    println!(
        "  final queue            {:>5}/{}  (running {}, workers {})",
        gauge("queue_depth"),
        gauge("queue_cap"),
        gauge("running"),
        gauge("workers")
    );
    let drains = count_event("drain_begin");
    if drains > 0 {
        let closed = count_event("drain_end");
        println!(
            "  drains                 {drains:>8}  ({closed} completed{})",
            if closed < drains {
                " — journal ends mid-drain"
            } else {
                ""
            }
        );
    }
}

fn usage_and_exit() -> ! {
    eprintln!("usage: sem-report <metrics.jsonl> [--chrome <out.json>] [--strict]");
    eprintln!("       sem-report --ranks <terasem.ranks> [--ref <metrics.jsonl>]");
    eprintln!("                  [--strict] [--max-imbalance X]");
    eprintln!("  <metrics.jsonl>: JSON-lines from TERASEM_METRICS_SINK=file:<path>");
    eprintln!("                   or a saved stdout log ('JSON ' prefixes are stripped)");
    eprintln!("  --strict: exit 4 on CG breakdowns, dropped projection updates,");
    eprintln!("            or recovery rollbacks (health gate for CI);");
    eprintln!("            exit 5 when a terasem.run record shows the run gave up");
    eprintln!("  --ranks:  Table-2-at-scale view of a terasem-launch --telemetry job:");
    eprintln!("            per-phase min/mean/max across ranks, imbalance factor,");
    eprintln!("            measured vs alpha-beta-model comm fraction, efficiency");
    eprintln!("  --ref:    single-rank metrics.jsonl as the efficiency reference");
    eprintln!("  --max-imbalance: step imbalance max/mean the --ranks --strict gate");
    eprintln!("            tolerates before exiting 6 (default 2.0)");
    std::process::exit(exit::USAGE);
}

/// The transport-resilience counters surfaced per rank: what the
/// seeded fault shim injected and what the self-healing machinery did
/// about it (`sem-net`'s `TERASEM_NET_FAULT` layer).
const NET_COUNTERS: [&str; 6] = [
    "net_faults_injected",
    "net_frames_corrupt",
    "net_retries",
    "net_reconnects",
    "heartbeats_missed",
    "net_frames_stale",
];

/// One rank's `terasem.rank` record, reduced to what the report needs.
struct RankRow {
    rank: u64,
    ranks: u64,
    steps: u64,
    steps_this_life: u64,
    span_secs: [f64; NUM_PHASES],
    span_calls: [u64; NUM_PHASES],
    /// Pooled `(bytes, secs)` comm samples across op classes.
    samples: Vec<(u64, f64)>,
    comm_msgs: u64,
    comm_bytes: u64,
    /// [`NET_COUNTERS`] values (0 for counters the record predates).
    net: [u64; NET_COUNTERS.len()],
}

impl RankRow {
    fn step_secs(&self) -> f64 {
        self.span_secs[Phase::Step as usize]
    }

    fn comm_secs(&self) -> f64 {
        self.samples.iter().map(|&(_, s)| s).sum()
    }

    /// Wall-time proxy for the rank's whole solve. In the replicated-
    /// compute harness every exchange/collective runs in the
    /// supervisor's validation observer, *outside* the step span, so
    /// compute and comm are disjoint and their sum approximates the
    /// rank's wall time between the start barrier and the last step.
    fn wall_secs(&self) -> f64 {
        self.step_secs() + self.comm_secs()
    }
}

fn parse_rank_row(v: &Json) -> Option<RankRow> {
    let mut row = RankRow {
        rank: v.get("rank")?.as_u64()?,
        ranks: v.get("ranks")?.as_u64()?,
        steps: v.get("steps")?.as_u64()?,
        steps_this_life: v.get("steps_this_life").and_then(Json::as_u64).unwrap_or(0),
        span_secs: [0.0; NUM_PHASES],
        span_calls: [0; NUM_PHASES],
        samples: Vec::new(),
        comm_msgs: 0,
        comm_bytes: 0,
        net: [0; NET_COUNTERS.len()],
    };
    if let Some(counters) = v.get("counters").and_then(Json::as_obj) {
        for (name, value) in counters {
            if let Some(i) = NET_COUNTERS.iter().position(|n| n == name) {
                row.net[i] = value.as_u64().unwrap_or(0);
            }
        }
    }
    if let Some(spans) = v.get("spans").and_then(Json::as_obj) {
        for (name, entry) in spans {
            let Some(p) = Phase::parse(name) else { continue };
            row.span_secs[p as usize] = entry.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
            row.span_calls[p as usize] = entry.get("calls").and_then(Json::as_u64).unwrap_or(0);
        }
    }
    let comm = v.get("comm")?;
    row.comm_msgs = comm.get("msgs").and_then(Json::as_u64).unwrap_or(0);
    row.comm_bytes = comm.get("bytes").and_then(Json::as_u64).unwrap_or(0);
    for class in ["exchange", "allgather", "allreduce"] {
        for pair in comm.get(class).and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some([b, s]) = pair.as_arr().and_then(|a| <&[Json; 2]>::try_from(a).ok()) {
                if let (Some(b), Some(s)) = (b.as_u64(), s.as_f64()) {
                    row.samples.push((b, s));
                }
            }
        }
    }
    Some(row)
}

/// Reference step time for the efficiency estimate: total `seconds`
/// over the step records of a single-rank metrics log.
fn ref_step_seconds(path: &str) -> Result<f64, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut total = 0.0f64;
    let mut n = 0usize;
    for line in body.lines() {
        let line = line.trim();
        let line = line.strip_prefix("JSON ").unwrap_or(line);
        let Some(v) = Json::parse(line) else { continue };
        if v.get("type").and_then(Json::as_str) != Some(STEP_RECORD_TYPE) {
            continue;
        }
        total += v.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
        n += 1;
    }
    if n == 0 {
        return Err(format!("no {STEP_RECORD_TYPE} records in {path}"));
    }
    Ok(total)
}

fn min_mean_max(xs: impl Iterator<Item = f64>) -> (f64, f64, f64) {
    let (mut min, mut max, mut sum, mut n) = (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0usize);
    for x in xs {
        min = min.min(x);
        max = max.max(x);
        sum += x;
        n += 1;
    }
    (min, sum / n.max(1) as f64, max)
}

/// `--ranks`: the Table-2-at-scale report over one `terasem.ranks` file.
fn ranks_main(path: &str, ref_path: Option<&str>, strict: bool, max_imbalance: f64) -> ! {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("sem-report: cannot read {path}: {e}");
            std::process::exit(exit::FAILURE);
        }
    };
    let mut rows: Vec<RankRow> = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some(v) = Json::parse(line) else {
            eprintln!("sem-report: warning: unparsable line in {path}");
            continue;
        };
        if v.get("type").and_then(Json::as_str) != Some(RANK_RECORD_TYPE) {
            continue;
        }
        match parse_rank_row(&v) {
            Some(r) => rows.push(r),
            None => eprintln!("sem-report: warning: malformed {RANK_RECORD_TYPE} record"),
        }
    }
    if rows.is_empty() {
        eprintln!("sem-report: no {RANK_RECORD_TYPE} records in {path}");
        std::process::exit(exit::FAILURE);
    }
    rows.sort_by_key(|r| r.rank);
    let n = rows.len();
    let declared = rows[0].ranks as usize;
    if n != declared {
        eprintln!(
            "sem-report: warning: {n} rank record(s) but the job declared {declared} rank(s)"
        );
    }
    println!(
        "sem-report --ranks: {n} rank(s), step {}, from {path}",
        rows[0].steps
    );
    if rows.iter().any(|r| r.steps_this_life != rows[0].steps) {
        println!(
            "  note: some ranks resumed mid-run; spans/counters cover each rank's last life only"
        );
    }
    println!();

    // 1. Per-phase min/mean/max across ranks.
    println!("Per-phase across ranks (inclusive seconds):");
    println!(
        "{:<22} {:>8} {:>11} {:>11} {:>11} {:>9}",
        "phase", "calls", "min(s)", "mean(s)", "max(s)", "max/mean"
    );
    for (p, depth) in tree_order() {
        let i = p as usize;
        if rows.iter().all(|r| r.span_calls[i] == 0 && r.span_secs[i] == 0.0) {
            continue;
        }
        let (min, mean, max) = min_mean_max(rows.iter().map(|r| r.span_secs[i]));
        let name = format!("{}{}", "  ".repeat(depth), p.name());
        println!(
            "{:<22} {:>8} {:>11.6} {:>11.6} {:>11.6} {:>9.3}",
            name,
            rows[0].span_calls[i],
            min,
            mean,
            max,
            if mean > 0.0 { max / mean } else { 1.0 },
        );
    }
    let (_, step_mean, step_max) = min_mean_max(rows.iter().map(RankRow::step_secs));
    let imbalance = if step_mean > 0.0 { step_max / step_mean } else { 1.0 };
    let slowest = rows
        .iter()
        .max_by(|a, b| a.step_secs().total_cmp(&b.step_secs()))
        .unwrap();
    println!();
    println!(
        "Load imbalance (step): {imbalance:.3} (max {:.6} s on rank {}, mean {:.6} s)",
        step_max,
        slowest.rank,
        step_mean
    );

    // 2. Measured comm fraction vs the alpha-beta machine models.
    println!();
    println!("Communication (per-op-class samples shipped by every rank):");
    let total_samples: usize = rows.iter().map(|r| r.samples.len()).sum();
    let (cmin, cmean, cmax) = min_mean_max(rows.iter().map(RankRow::comm_secs));
    let (fmin, fmean, fmax) = min_mean_max(
        rows.iter()
            .map(|r| r.comm_secs() / r.wall_secs().max(f64::MIN_POSITIVE)),
    );
    println!(
        "  measured: {total_samples} sample(s); comm seconds min/mean/max \
         {cmin:.6}/{cmean:.6}/{cmax:.6}"
    );
    println!(
        "  measured comm fraction of wall (comm / (step + comm)): min/mean/max \
         {:.2}%/{:.2}%/{:.2}%",
        100.0 * fmin,
        100.0 * fmean,
        100.0 * fmax
    );
    println!(
        "  (measured comm time includes synchronization wait, so load \
         imbalance surfaces here)"
    );
    let pooled: Vec<(u64, f64)> = rows.iter().flat_map(|r| r.samples.iter().copied()).collect();
    let asci = MachineModel::asci_red_333_single();
    let mut models: Vec<MachineModel> = Vec::new();
    match fit_alpha_beta(&pooled) {
        Some((alpha, beta)) => {
            println!(
                "  fitted alpha-beta on pooled samples: alpha = {:.2} us, beta = {:.3} ns/byte",
                alpha * 1e6,
                beta * 1e9
            );
            models.push(MachineModel::measured(alpha, beta, asci.flop_rate));
        }
        None => println!("  fitted alpha-beta unavailable (need >= 2 distinct sizes)"),
    }
    models.push(asci);
    for model in &models {
        // Predicted comm time per rank: alpha per message plus beta per
        // byte, over exactly the samples that rank recorded, against
        // the same compute time (wall = step + predicted comm).
        let (pmin, pmean, pmax) = min_mean_max(rows.iter().map(|r| {
            let predicted: f64 = r
                .samples
                .iter()
                .map(|&(b, _)| model.latency + model.inv_bandwidth * b as f64)
                .sum();
            predicted / (r.step_secs() + predicted).max(f64::MIN_POSITIVE)
        }));
        println!(
            "  model [{}] comm fraction: min/mean/max {:.2}%/{:.2}%/{:.2}%",
            model.name,
            100.0 * pmin,
            100.0 * pmean,
            100.0 * pmax
        );
    }

    // 3. Network resilience: injected faults and the healing work they
    // forced. All-zero rows (no TERASEM_NET_FAULT, no link trouble) stay
    // silent so unfaulted reports are unchanged.
    let net_total: u64 = rows.iter().flat_map(|r| r.net.iter()).sum();
    if net_total > 0 {
        println!();
        println!("Network resilience (faults injected and healed):");
        for (i, name) in NET_COUNTERS.iter().enumerate() {
            let total: u64 = rows.iter().map(|r| r.net[i]).sum();
            if total == 0 {
                continue;
            }
            let worst = rows.iter().max_by_key(|r| r.net[i]).unwrap();
            println!(
                "  {name:<22} {total:>8} total  (max {} on rank {})",
                worst.net[i], worst.rank
            );
        }
    }

    // 4. Parallel efficiency: the job is only as fast as its slowest
    // rank's wall time (compute plus comm-and-wait).
    println!();
    let wall_max = rows
        .iter()
        .map(RankRow::wall_secs)
        .fold(f64::MIN_POSITIVE, f64::max);
    match ref_path {
        Some(rp) => match ref_step_seconds(rp) {
            Ok(ref_secs) => {
                println!(
                    "Parallel efficiency vs {rp}: {:.1}% \
                     (reference {ref_secs:.6} s / slowest rank wall {wall_max:.6} s)",
                    100.0 * ref_secs / wall_max
                );
            }
            Err(e) => {
                eprintln!("sem-report: --ref: {e}");
                std::process::exit(exit::FAILURE);
            }
        },
        None => {
            // Compute-only proxy: the mean step (compute) time over the
            // slowest rank's wall — what the job loses to comm, wait,
            // and imbalance combined.
            println!(
                "Parallel efficiency (compute-only estimate, no --ref): {:.1}% \
                 (mean step {step_mean:.6} s / slowest rank wall {wall_max:.6} s)",
                100.0 * step_mean / wall_max
            );
        }
    }

    // 5. Strict imbalance gate.
    if strict {
        println!();
        if imbalance > max_imbalance {
            println!(
                "strict: FAIL — step imbalance {imbalance:.3} exceeds --max-imbalance \
                 {max_imbalance:.3}"
            );
            std::process::exit(exit::REPORT_IMBALANCE);
        }
        println!("strict: PASS (step imbalance {imbalance:.3} <= {max_imbalance:.3})");
    }
    std::process::exit(exit::OK);
}

fn parse_row(v: &Json) -> Option<StepRow> {
    let mut row = StepRow {
        step: v.get("step")?.as_u64()?,
        time: v.get("time")?.as_f64().unwrap_or(f64::NAN),
        cfl: v.get("cfl")?.as_f64().unwrap_or(f64::NAN),
        // Schema v6; absent in older logs.
        oifs_substeps: v.get("oifs_substeps").and_then(Json::as_u64),
        seconds: v.get("seconds")?.as_f64().unwrap_or(0.0),
        pressure_iterations: v.get("pressure_iterations")?.as_u64()?,
        pressure_final_residual: v
            .get("pressure_final_residual")?
            .as_f64()
            .unwrap_or(f64::NAN),
        projection_depth: v.get("projection_depth")?.as_u64()?,
        // Schema v3; absent (0) in older logs.
        recoveries: v.get("recoveries").and_then(Json::as_u64).unwrap_or(0),
        // Schema v4; absent (empty) in older logs.
        recovery_trail: v
            .get("recovery_trail")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_str)
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default(),
        helmholtz_iterations: v
            .get("helmholtz_iterations")?
            .as_arr()?
            .iter()
            .filter_map(Json::as_u64)
            .collect(),
        span_delta_seconds: [0.0; NUM_PHASES],
        span_delta_calls: [0; NUM_PHASES],
        latency: HistSnapshot::default(),
    };
    if let Some(spans) = v.get("spans_delta").and_then(Json::as_obj) {
        for (name, entry) in spans {
            let Some(p) = Phase::parse(name) else { continue };
            row.span_delta_seconds[p as usize] =
                entry.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
            row.span_delta_calls[p as usize] =
                entry.get("calls").and_then(Json::as_u64).unwrap_or(0);
        }
    }
    // Schema v2 latency buckets; absent in v1 logs — tables then show
    // "-" latencies instead of failing.
    if let Some(hist) = v.get("latency_hist").and_then(Json::as_obj) {
        for (name, pairs) in hist {
            let Some(p) = Phase::parse(name) else { continue };
            for pair in pairs.as_arr().unwrap_or(&[]) {
                if let Some([b, c]) = pair.as_arr().and_then(|a| <&[Json; 2]>::try_from(a).ok()) {
                    if let (Some(b), Some(c)) = (b.as_u64(), c.as_u64()) {
                        if (b as usize) < NUM_BUCKETS {
                            row.latency.add_bucket(p, b as usize, c);
                        }
                    }
                }
            }
        }
    }
    Some(row)
}

/// Phases in tree order (parents before children), with their depth.
fn tree_order() -> Vec<(Phase, usize)> {
    let mut out = Vec::with_capacity(NUM_PHASES);
    fn visit(p: Phase, depth: usize, out: &mut Vec<(Phase, usize)>) {
        out.push((p, depth));
        for c in Phase::ALL {
            if c != p && c.parent() == Some(p) {
                visit(c, depth + 1, out);
            }
        }
    }
    visit(Phase::Step, 0, &mut out);
    out
}

fn fmt_lat(x: Option<f64>) -> String {
    match x {
        Some(s) => format!("{:>9}", sem_bench::fmt_secs(s)),
        None => format!("{:>9}", "-"),
    }
}

fn print_phase_table(rows: &[StepRow]) {
    let mut incl = [0.0f64; NUM_PHASES];
    let mut calls = [0u64; NUM_PHASES];
    let mut hist = HistSnapshot::default();
    for r in rows {
        for p in 0..NUM_PHASES {
            incl[p] += r.span_delta_seconds[p];
            calls[p] += r.span_delta_calls[p];
        }
        hist.merge(&r.latency);
    }
    // Exclusive (self) time: inclusive minus the inclusive time of
    // direct children in the static nesting tree. Span totals are
    // inclusive by design (a parent's guard is open across its
    // children), so this is the only subtraction needed.
    let mut excl = incl;
    for c in Phase::ALL {
        if let Some(parent) = c.parent() {
            excl[parent as usize] -= incl[c as usize];
        }
    }
    let step_total = incl[Phase::Step as usize].max(f64::MIN_POSITIVE);

    println!("Per-phase breakdown (inclusive spans; excl = self time):");
    println!(
        "{:<22} {:>8} {:>11} {:>11} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "phase", "calls", "incl(s)", "excl(s)", "%step", "p50", "p90", "p99", "max"
    );
    for (p, depth) in tree_order() {
        let i = p as usize;
        let buckets = hist.buckets(p);
        if calls[i] == 0 && incl[i] == 0.0 && buckets.iter().all(|&c| c == 0) {
            continue;
        }
        let name = format!("{}{}", "  ".repeat(depth), p.name());
        println!(
            "{:<22} {:>8} {:>11.6} {:>11.6} {:>6.1}% {} {} {} {}",
            name,
            calls[i],
            incl[i],
            excl[i].max(0.0),
            100.0 * incl[i] / step_total,
            fmt_lat(quantile_from_buckets(buckets, 0.50)),
            fmt_lat(quantile_from_buckets(buckets, 0.90)),
            fmt_lat(quantile_from_buckets(buckets, 0.99)),
            fmt_lat(quantile_from_buckets(buckets, 1.0)),
        );
    }
}

/// Compact label for a step's recovery trail: ladder-stage
/// abbreviations joined with `+` (`clr+jac`), `-` on a clean step.
fn recov_label(trail: &[String], recoveries: u64) -> String {
    if trail.is_empty() {
        // Pre-v4 logs carry only the count.
        return if recoveries > 0 {
            format!("x{recoveries}")
        } else {
            "-".to_string()
        };
    }
    trail
        .iter()
        .map(|s| match s.as_str() {
            "clear_projection" => "clr",
            "jacobi_fallback" => "jac",
            "halve_dt" => "dt/2",
            "give_up" => "give",
            other => other,
        })
        .collect::<Vec<_>>()
        .join("+")
}

fn print_trajectory(rows: &[StepRow]) {
    println!("Per-step trajectory:");
    println!(
        "{:>6} {:>12} {:>8} {:>5} {:>8} {:>6} {:>8} {:>12} {:>10} {:>9} {:>12}",
        "step",
        "time",
        "cfl",
        "subs",
        "p_iters",
        "depth",
        "helm",
        "p_resid",
        "seconds",
        "cg_p99",
        "recov"
    );
    for r in rows {
        let helm: u64 = r.helmholtz_iterations.iter().sum();
        let cg_p99 = quantile_from_buckets(r.latency.buckets(Phase::PressureCg), 0.99);
        let subs = r.oifs_substeps.map_or("-".to_string(), |n| n.to_string());
        println!(
            "{:>6} {:>12.6} {:>8.3} {:>5} {:>8} {:>6} {:>8} {:>12.3e} {:>10.6} {} {:>12}",
            r.step,
            r.time,
            r.cfl,
            subs,
            r.pressure_iterations,
            r.projection_depth,
            helm,
            r.pressure_final_residual,
            r.seconds,
            fmt_lat(cg_p99),
            recov_label(&r.recovery_trail, r.recoveries),
        );
    }
}

fn print_runs(runs: &[RunSummary]) {
    println!("Run summaries (sem-run supervisor):");
    for r in runs {
        println!(
            "  {}: {} step(s), {} step error(s), {} checkpoint(s) written{}",
            r.outcome,
            r.steps,
            r.step_errors,
            r.checkpoints_written,
            if r.resumed { ", resumed from checkpoint" } else { "" },
        );
    }
}

fn print_counters(counters: &[(String, u64)]) {
    println!("Counters (cumulative at last step):");
    for (name, value) in counters {
        let flag = match name.as_str() {
            "cg_breakdowns" | "projection_dropped" | "recoveries" if *value > 0 => "  <-- check",
            _ => "",
        };
        println!("  {name:<24} {value:>14}{flag}");
    }
}

/// Synthesize a Chrome trace from per-step span deltas: one complete
/// `"X"` event per (step, phase) on the recorded wall-time axis, one
/// lane (tid) per phase so overlap/nesting needs no begin/end pairing.
fn chrome_from_rows(rows: &[StepRow]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut cursor_us = 0.0f64;
    for r in rows {
        for (p, _) in tree_order() {
            let i = p as usize;
            let secs = r.span_delta_seconds[i];
            if secs <= 0.0 && r.span_delta_calls[i] == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"step\":{}}}}}",
                p.name(),
                cursor_us,
                (secs * 1e6).max(0.001),
                i,
                r.step
            ));
        }
        cursor_us += (r.seconds * 1e6).max(1.0);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}
