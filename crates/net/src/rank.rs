//! Rank-process main loop: what each child of `terasem-launch` runs.
//!
//! A rank advances the replicated shear-layer solve under the `sem-run`
//! supervisor, with the distributed consistency machinery hung on the
//! per-step observer hook ([`sem_ns::RunSupervisor::run_to_with`]):
//! every validation interval (= the checkpoint interval, so nothing
//! inconsistent is ever checkpointed) the ranks
//!
//! 1. allgather an FNV-1a hash over the full solution bits and verify
//!    all ranks agree (the replicated-compute invariant), and
//! 2. run the *distributed* gather-scatter on this rank's owned-element
//!    block of the live velocity field and verify it is bitwise-equal
//!    to the serial assembly of the same data.
//!
//! Failures map to distinct exit codes the launcher understands:
//! divergence aborts through [`sem_ns::GiveUpReason::Aborted`] — which
//! deliberately writes **no** exit checkpoint — while a lost peer exits
//! the same way but reports transport failure. A `--kill rank@step`
//! chaos spec makes the named rank exit hard after committing that step
//! (first life only), mirroring the soak harness's kill semantics.

use crate::comm::{CommTimings, NetComm, CLASS_PING};
use crate::launch::LaunchOpts;
use crate::layout::{rank_ckpt_dir, RankLayout};
use crate::telemetry::{self, RankTelemetry};
use crate::transport::{NetError, Transport};
use sem_comm::{fit_alpha_beta, CostBreakdown, MachineModel};
use sem_gs::{GsOp, RankGs};
use sem_mesh::partition::partition_rsb;
use sem_ns::{GiveUpReason, NsSolver, RunPolicy, RunReport, RunSupervisor};
use std::time::Duration;

/// Child environment: rank index (presence selects rank mode).
pub const ENV_RANK: &str = "TERASEM_NET_RANK";
/// Child environment: total ranks.
pub const ENV_SIZE: &str = "TERASEM_NET_SIZE";
/// Child environment: socket directory for this generation.
pub const ENV_SOCK_DIR: &str = "TERASEM_NET_SOCK_DIR";
/// Child environment: generation to resume from (restart path).
pub const ENV_RESUME_STEP: &str = "TERASEM_NET_RESUME_STEP";
/// Child environment: `rank@step[,rank@step..]` chaos-kill spec (first
/// life only).
pub const ENV_KILL: &str = "TERASEM_NET_KILL";
/// Child environment: rejoin epoch this process enters the mesh at
/// (unset / 0 = launcher-spawned first life of the mesh). Survivors of
/// a lost peer bump their epoch in place; the launcher hands the
/// replacement rank the matching value so both sides rendezvous on the
/// same epoch socket namespace.
pub const ENV_EPOCH: &str = "TERASEM_NET_EPOCH";

/// Clean exit. (All exit codes here are aliases into the shared
/// workspace registry, [`sem_obs::exit`] — the names predate it and
/// stay for source compatibility.)
pub const EXIT_OK: i32 = sem_obs::exit::OK;
/// Configuration rejected (bad partition, bad resume generation).
pub const EXIT_USAGE: i32 = sem_obs::exit::USAGE;
/// Cross-rank divergence detected (hash or gather-scatter mismatch).
pub const EXIT_DIVERGED: i32 = sem_obs::exit::NET_DIVERGED;
/// A peer died or the transport failed.
pub const EXIT_PEER_LOST: i32 = sem_obs::exit::NET_PEER_LOST;
/// Deterministic chaos self-kill (`--kill`), mirroring the soak harness.
pub const EXIT_CHAOS_KILL: i32 = sem_obs::exit::CHAOS_KILL;

/// Read the child-mode environment: `Some((rank, size))` in a rank
/// process, `None` in the launcher.
pub fn rank_env() -> Option<(usize, usize)> {
    let rank = std::env::var(ENV_RANK).ok()?.parse().ok()?;
    let size = std::env::var(ENV_SIZE).ok()?.parse().ok()?;
    Some((rank, size))
}

/// The replicated workload every rank advances: the Fig. 3 shear layer
/// at smoke scale (doubly periodic, OIFS, deterministic).
pub fn build_solver(opts: &LaunchOpts) -> NsSolver {
    sem_bench::workloads::shear_layer(opts.kelem, opts.order, 30.0, 1e5, 0.3, 2e-3)
}

/// FNV-1a over the solution bits: both velocity components, pressure,
/// time, and step index. Any cross-rank drift flips it.
fn solution_hash(s: &NsSolver) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    for comp in &s.vel {
        for v in comp {
            eat(v.to_bits());
        }
    }
    for v in &s.pressure {
        eat(v.to_bits());
    }
    eat(s.time.to_bits());
    eat(s.step_index as u64);
    h
}

/// Error-prefix for a failed collective: `resync:` when a peer
/// announced an epoch bump (the mesh is already reforming), `peer-lost:`
/// for every other transport failure. Both are recoverable by a rejoin
/// epoch; distinguishing them keeps the logs honest about who failed
/// first.
fn comm_prefix(e: &NetError) -> &'static str {
    match e {
        NetError::Resync { .. } => "resync",
        _ => "peer-lost",
    }
}

/// Whether an abort reason is a communication failure a rejoin epoch
/// can recover from (divergence never is).
fn rejoinable(why: &str) -> bool {
    why.starts_with("peer-lost:") || why.starts_with("resync:")
}

/// One validation pass (see module docs). Error strings are prefixed so
/// the caller can map them to exit codes.
fn validate(
    s: &NsSolver,
    layout: &RankLayout,
    gs: &RankGs,
    comm: &mut NetComm,
) -> Result<(), String> {
    let rank = comm.rank();
    let step = s.step_index;
    // 1. Replicated-compute invariant: identical solution bits everywhere.
    let mine = solution_hash(s);
    let hashes = comm
        .allgather_u64s(&[mine])
        .map_err(|e| format!("{}: hash allgather at step {step}: {e}", comm_prefix(&e)))?;
    for (r, h) in hashes.iter().enumerate() {
        if h[0] != mine {
            return Err(format!(
                "diverged: rank {rank} hash {mine:#018x} != rank {r} hash {:#018x} at step {step}",
                h[0]
            ));
        }
    }
    // 2. Distributed gather-scatter vs serial assembly, on live data.
    let mut dist = layout.extract(rank, &s.vel[0]);
    let inbox = comm
        .exchange(&gs.pack(&dist))
        .map_err(|e| format!("{}: gs exchange at step {step}: {e}", comm_prefix(&e)))?;
    gs.fold(&mut dist, &inbox, GsOp::Add);
    let mut full = s.vel[0].clone();
    s.ops.gs.gs(&mut full, GsOp::Add);
    let want = layout.extract(rank, &full);
    for (slot, (d, w)) in dist.iter().zip(want.iter()).enumerate() {
        if d.to_bits() != w.to_bits() {
            return Err(format!(
                "diverged: distributed gather-scatter differs from serial assembly at step {step}, \
                 rank {rank} slot {slot}: {d:e} vs {w:e}"
            ));
        }
    }
    Ok(())
}

/// The socket directory of a rejoin epoch: epoch 0 is the
/// launcher-provided directory itself, later epochs get an `_e<N>`
/// suffix next to it, so survivors and the replacement rank rendezvous
/// on a fresh socket namespace without any launcher round-trip.
fn epoch_sock_dir(base: &str, epoch: u64) -> std::path::PathBuf {
    if epoch == 0 {
        std::path::PathBuf::from(base)
    } else {
        std::path::PathBuf::from(format!("{base}_e{epoch}"))
    }
}

/// Chaos-kill steps for this rank from the `rank@step[,rank@step..]`
/// spec (the launcher validated the argv form; foreign ranks and
/// malformed entries are skipped).
fn kill_steps_from_env(rank: usize) -> Vec<u64> {
    let Ok(spec) = std::env::var(ENV_KILL) else {
        return Vec::new();
    };
    spec.split(',')
        .filter_map(|part| {
            let (r, s) = part.split_once('@')?;
            let r: usize = r.trim().parse().ok()?;
            let s: u64 = s.trim().parse().ok()?;
            (r == rank).then_some(s)
        })
        .collect()
}

/// How one mesh epoch (one transport lifetime) of a rank ended.
enum EpochOutcome {
    /// Terminal: exit the process with this code.
    Exit(i32),
    /// The mesh broke underneath us and a rejoin epoch is warranted.
    Rejoin,
}

/// Entry point of a rank process. Returns the process exit code.
///
/// The body is an *epoch loop*: each iteration bootstraps a transport
/// on the epoch's socket namespace and advances the solve. When a peer
/// dies, survivors do not exit — they announce a resync, bump their
/// epoch, and re-bootstrap, keeping their in-memory state, while the
/// launcher spawns a single replacement rank into the same epoch. Only
/// when the rejoin budget is spent (or `--no-rejoin` is set) does a
/// lost peer become a process exit, and the launcher's restart-all
/// fallback takes over.
pub fn rank_main(opts: &LaunchOpts, rank: usize, size: usize) -> i32 {
    let Ok(sock_base) = std::env::var(ENV_SOCK_DIR) else {
        eprintln!("terasem-net rank {rank}: {ENV_SOCK_DIR} unset");
        return EXIT_USAGE;
    };
    let launch_epoch: u64 = std::env::var(ENV_EPOCH)
        .ok()
        .and_then(|e| e.parse().ok())
        .unwrap_or(0);
    if opts.bench_comm {
        let transport = match Transport::bootstrap(
            &epoch_sock_dir(&sock_base, launch_epoch),
            rank,
            size,
            Duration::from_secs_f64(opts.timeout_secs),
        ) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("terasem-net rank {rank}: bootstrap failed: {e}");
                return EXIT_PEER_LOST;
            }
        };
        let mut comm = NetComm::new(transport);
        return bench_comm_main(opts, &mut comm);
    }
    let mut solver = build_solver(opts);
    let ckpt_dir = rank_ckpt_dir(&opts.dir, rank);
    solver.cfg.run = RunPolicy::checkpointing(&ckpt_dir, opts.ckpt_every, opts.keep_last);
    if opts.telemetry {
        // `build_solver` constructed the solver with metrics off, so the
        // process-global observability switches are applied here: rank
        // stamp first (every record from now on carries it), then a
        // per-rank metrics sink in the rank's checkpoint directory so N
        // ranks never interleave on one stdout.
        sem_obs::set_rank(Some(rank as u32));
        sem_obs::set_enabled(true);
        sem_obs::trace::set_trace_enabled(true);
        solver.cfg.metrics = true;
        solver.cfg.rank = Some(rank as u32);
        if let Err(e) = std::fs::create_dir_all(&ckpt_dir) {
            eprintln!("terasem-net rank {rank}: cannot create {}: {e}", ckpt_dir.display());
            return EXIT_USAGE;
        }
        let metrics_path = ckpt_dir.join("metrics.jsonl");
        match sem_obs::sink::FileSink::create(&metrics_path.to_string_lossy()) {
            Ok(sink) => sem_obs::sink::set_sink(Some(sem_obs::SinkHandle::new(sink).0)),
            Err(e) => {
                eprintln!(
                    "terasem-net rank {rank}: cannot open metrics sink {}: {e}",
                    metrics_path.display()
                );
                return EXIT_USAGE;
            }
        }
    }
    let part = partition_rsb(&solver.ops.mesh, size);
    let layout = match RankLayout::new(&solver.ops.num.ids, solver.ops.geo.npts, &part, size) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("terasem-net rank {rank}: {e}");
            return EXIT_USAGE;
        }
    };
    let gs = layout.gs(rank);
    let mut sup = RunSupervisor::new(solver);
    if let Ok(step) = std::env::var(ENV_RESUME_STEP) {
        let step: u64 = match step.parse() {
            Ok(s) => s,
            Err(_) => {
                eprintln!("terasem-net rank {rank}: bad {ENV_RESUME_STEP} {step:?}");
                return EXIT_USAGE;
            }
        };
        match sup.resume_from_step(step) {
            Ok(_) => eprintln!("terasem-net rank {rank}: resumed from generation {step}"),
            Err(e) => {
                eprintln!("terasem-net rank {rank}: resume from {step} failed: {e}");
                return EXIT_USAGE;
            }
        }
    }
    let kill_steps = kill_steps_from_env(rank);
    let mut epoch = launch_epoch;
    let mut rejoins = 0usize;
    let mut barrier_ns: Option<u64> = None;
    loop {
        // The rejoin budget mirrors the launcher's --max-restarts: the
        // launcher spends it spawning replacement ranks, the survivors
        // spend it re-bootstrapping, so neither side outlives the other
        // for long when recovery is off the table.
        let allow_rejoin = !opts.no_rejoin && rejoins < opts.max_restarts;
        match run_epoch(
            opts,
            rank,
            size,
            &sock_base,
            epoch,
            allow_rejoin,
            &layout,
            &gs,
            &mut sup,
            &kill_steps,
            &mut barrier_ns,
        ) {
            EpochOutcome::Exit(code) => return code,
            EpochOutcome::Rejoin => {
                rejoins += 1;
                epoch += 1;
                eprintln!(
                    "terasem-net rank {rank}: mesh lost; rejoining at epoch {epoch} \
                     (step {}, attempt {rejoins}/{})",
                    sup.solver().step_index,
                    opts.max_restarts
                );
            }
        }
    }
}

/// One transport lifetime: bootstrap the epoch's mesh, negotiate the
/// step frontier, run (or catch up) to the target, and classify how it
/// ended. Epoch 0 is the launcher-spawned first life of the mesh;
/// later epochs are single-rank-rejoin re-bootstraps.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    opts: &LaunchOpts,
    rank: usize,
    size: usize,
    sock_base: &str,
    epoch: u64,
    allow_rejoin: bool,
    layout: &RankLayout,
    gs: &RankGs,
    sup: &mut RunSupervisor,
    kill_steps: &[u64],
    barrier_ns: &mut Option<u64>,
) -> EpochOutcome {
    let transport = match Transport::bootstrap(
        &epoch_sock_dir(sock_base, epoch),
        rank,
        size,
        Duration::from_secs_f64(opts.timeout_secs),
    ) {
        Ok(t) => t,
        Err(e) => {
            // A failed re-bootstrap means the launcher chose restart-all
            // (or is gone): fall back by dying visibly, not by retrying
            // into a namespace nobody else will join.
            eprintln!("terasem-net rank {rank}: epoch {epoch} bootstrap failed: {e}");
            return EpochOutcome::Exit(EXIT_PEER_LOST);
        }
    };
    let mut comm = NetComm::new(transport);
    // Step negotiation: every rank announces where it stands. The mesh
    // frontier V = max is where the survivors' in-memory state lives; a
    // rejoining rank sits below it and must catch up.
    let my_step = sup.solver().step_index as u64;
    let frontier = match comm.allgather_u64s(&[my_step]) {
        Ok(all) => all.iter().map(|v| v[0]).max().unwrap_or(my_step),
        Err(e) => {
            eprintln!("terasem-net rank {rank}: epoch {epoch} step negotiation failed: {e}");
            return EpochOutcome::Exit(EXIT_PEER_LOST);
        }
    };
    // All transports up and all ranks step-negotiated before stepping.
    if let Err(e) = comm.barrier() {
        eprintln!("terasem-net rank {rank}: start barrier failed: {e}");
        return EpochOutcome::Exit(EXIT_PEER_LOST);
    }
    // Each rank's trace clock is process-local; the instant the *first*
    // start barrier releases is the shared reference that clock-aligns
    // the merged trace lanes (rejoin epochs keep the original origin).
    let barrier_ref = *barrier_ns.get_or_insert_with(sem_obs::trace::now_ns);
    let (target, every) = (opts.steps, opts.ckpt_every.max(1));
    // Validation below the frontier is suppressed: a rejoining rank
    // replays steps the survivors have already validated (and cannot
    // collectively re-validate without rolling back), leaning on the
    // workspace's determinism guarantee until it catches up to V.
    let validate_floor = if epoch > 0 { frontier } else { 0 };
    if epoch > 0 && my_step == frontier && frontier > 0 {
        // Survivor prologue. Survivors only ever abort *inside* a
        // validation collective, so the frontier is a validation step
        // the newcomer will validate at when it catches up. Redo that
        // validation now to pair with the newcomer's, then commit the
        // frontier checkpoint the aborted epoch never wrote.
        eprintln!(
            "terasem-net rank {rank}: epoch {epoch}: holding at frontier step {frontier} \
             for the rejoining rank"
        );
        if let Err(why) = validate(sup.solver(), layout, gs, &mut comm) {
            eprintln!("terasem-net rank {rank}: rejoin prologue: {why}");
            return abort_outcome(&mut comm, epoch, allow_rejoin, &why);
        }
        if let Err(e) = sup.write_checkpoint_now() {
            eprintln!("terasem-net rank {rank}: frontier checkpoint failed: {e}");
            return EpochOutcome::Exit(EXIT_USAGE);
        }
    }
    let result = sup.run_to_with(target, |s, _stats| {
        let step = s.step_index as u64;
        if kill_steps.contains(&step) {
            eprintln!("terasem-net rank {rank}: chaos kill after committing step {step}");
            std::process::exit(EXIT_CHAOS_KILL);
        }
        if (step % every == 0 || step == target) && step >= validate_floor {
            validate(s, layout, gs, &mut comm)?;
        }
        Ok(())
    });
    match result {
        Ok(report) => finish_run(
            opts,
            rank,
            size,
            layout,
            gs,
            &mut comm,
            &report,
            target,
            barrier_ref,
        ),
        Err(err) => {
            eprintln!("terasem-net rank {rank}: {err}");
            match &err.reason {
                GiveUpReason::Aborted(why) => abort_outcome(&mut comm, epoch, allow_rejoin, why),
                _ => EpochOutcome::Exit(EXIT_DIVERGED),
            }
        }
    }
}

/// Classify an aborted epoch: communication failures roll into a rejoin
/// epoch while the budget allows; divergence is always terminal.
fn abort_outcome(comm: &mut NetComm, epoch: u64, allow_rejoin: bool, why: &str) -> EpochOutcome {
    if !rejoinable(why) {
        return EpochOutcome::Exit(EXIT_DIVERGED);
    }
    if !allow_rejoin {
        return EpochOutcome::Exit(EXIT_PEER_LOST);
    }
    // Best-effort wakeup: peers blocked in long receives on still-alive
    // links fail fast with `NetError::Resync` instead of draining their
    // timeout, so the whole mesh converges on the next epoch quickly.
    comm.transport().announce_resync(epoch + 1);
    EpochOutcome::Rejoin
}

/// End-of-run reporting and telemetry shipping for a completed solve.
#[allow(clippy::too_many_arguments)]
fn finish_run(
    opts: &LaunchOpts,
    rank: usize,
    size: usize,
    layout: &RankLayout,
    gs: &RankGs,
    comm: &mut NetComm,
    report: &RunReport,
    target: u64,
    barrier_ns: u64,
) -> EpochOutcome {
    // Snapshot telemetry before any end-of-run collective so the
    // shipped comm samples describe the solve, not the shutdown.
    let tel = opts
        .telemetry
        .then(|| RankTelemetry::capture(comm, gs, target, report.steps.len() as u64, barrier_ns));
    let exchange_mean = CommTimings::mean_secs(&comm.timings.exchange);
    match comm.global_stats() {
        Ok(stats) if rank == 0 => {
            let (msgs_call, words_call) = gs.traffic_per_call();
            println!(
                "terasem-net: {size} rank(s) reached step {target} \
                 ({} step(s) this life{})",
                report.steps.len(),
                report
                    .resumed_from
                    .map(|g| format!(", resumed from {g}"))
                    .unwrap_or_default(),
            );
            println!(
                "terasem-net: comm totals: {} msgs, {} bytes, {} rounds \
                 (per-rank max {} msgs / {} bytes)",
                stats.messages,
                stats.bytes,
                stats.rounds,
                stats.max_msgs_per_rank,
                stats.max_bytes_per_rank
            );
            if let Some(mean) = exchange_mean {
                // The α–β model of the validated exchange, under the
                // ASCI-Red preset for scale reference.
                let est = exchange_cost(layout, &MachineModel::asci_red_333_single());
                println!(
                    "terasem-net: neighbor exchange ({msgs_call} msgs, {words_call} words \
                     per call): measured mean {:.1} us, ASCI-Red model {:.1} us",
                    mean * 1e6,
                    est.total() * 1e6
                );
            }
        }
        Ok(_) => {}
        Err(e) => {
            eprintln!("terasem-net rank {rank}: final stats gather failed: {e}");
            return EpochOutcome::Exit(EXIT_PEER_LOST);
        }
    }
    if let Some(tel) = tel {
        match telemetry::ship_and_write(comm, &tel, &opts.dir) {
            Ok(Some((ranks_path, trace_path))) => {
                println!(
                    "terasem-net: telemetry: {} rank record(s) -> {}",
                    size,
                    ranks_path.display()
                );
                println!(
                    "terasem-net: telemetry: merged rank-lane trace -> {}",
                    trace_path.display()
                );
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("terasem-net rank {rank}: telemetry shipping failed: {e}");
                return EpochOutcome::Exit(EXIT_PEER_LOST);
            }
        }
    }
    EpochOutcome::Exit(EXIT_OK)
}

/// The α–β cost of one neighbor exchange on `layout` under `model`: the
/// critical path over ranks, one latency per message and one inverse
/// bandwidth per byte (8 per word) that the busiest rank sends.
fn exchange_cost(layout: &RankLayout, model: &MachineModel) -> CostBreakdown {
    let (msgs, words) = (0..layout.size)
        .map(|r| layout.gs(r).traffic_per_call())
        .fold((0, 0), |(m, w), (rm, rw)| (m.max(rm), w.max(rw)));
    CostBreakdown {
        compute: 0.0,
        latency: msgs as f64 * model.latency,
        bandwidth: (8 * words) as f64 * model.inv_bandwidth,
    }
}

/// Ping-pong sizes for the α–β fit (payload bytes).
const PING_SIZES: [usize; 6] = [0, 64, 1024, 8192, 65536, 524288];
/// Timed repetitions per size (plus warmup).
const PING_REPS: usize = 24;
const PING_WARMUP: usize = 4;
/// Repetitions of the exchange/allreduce microbenchmarks.
const OP_REPS: usize = 40;

/// `--bench-comm`: measure the transport, fit the α–β model, and compare
/// measured collective times against the fitted model and the ASCI-Red
/// preset with the simulator's `CostBreakdown` reporting.
fn bench_comm_main(opts: &LaunchOpts, comm: &mut NetComm) -> i32 {
    let (rank, size) = (comm.rank(), comm.size());
    if let Err(e) = comm.barrier() {
        eprintln!("terasem-net rank {rank}: bench barrier failed: {e}");
        return EXIT_PEER_LOST;
    }
    // Ping-pong between ranks 0 and 1: half round-trip per sample.
    let mut samples: Vec<(u64, f64)> = Vec::new();
    if size >= 2 && rank <= 1 {
        let peer = 1 - rank;
        for &bytes in &PING_SIZES {
            let payload = vec![0x5au8; bytes];
            for rep in 0..PING_REPS + PING_WARMUP {
                let t0 = std::time::Instant::now();
                let res = if rank == 0 {
                    comm.transport()
                        .send(peer, CLASS_PING, &payload)
                        .and_then(|()| comm.transport().recv(peer, CLASS_PING))
                } else {
                    comm.transport()
                        .recv(peer, CLASS_PING)
                        .and_then(|echo| comm.transport().send(peer, CLASS_PING, &echo).map(|()| vec![]))
                };
                if let Err(e) = res {
                    eprintln!("terasem-net rank {rank}: ping-pong failed: {e}");
                    return EXIT_PEER_LOST;
                }
                if rank == 0 && rep >= PING_WARMUP {
                    samples.push((bytes as u64, t0.elapsed().as_secs_f64() / 2.0));
                }
            }
        }
    }
    // Exchange + allreduce microbenchmarks on the real solver pattern.
    let solver = build_solver(opts);
    let part = partition_rsb(&solver.ops.mesh, size);
    let layout = match RankLayout::new(&solver.ops.num.ids, solver.ops.geo.npts, &part, size) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("terasem-net rank {rank}: {e}");
            return EXIT_USAGE;
        }
    };
    let gs = layout.gs(rank);
    let mut field = layout.extract(rank, &solver.vel[0]);
    if let Err(e) = comm.barrier() {
        eprintln!("terasem-net rank {rank}: {e}");
        return EXIT_PEER_LOST;
    }
    comm.timings = CommTimings::default();
    for _ in 0..OP_REPS {
        match comm.exchange(&gs.pack(&field)) {
            Ok(inbox) => gs.fold(&mut field, &inbox, GsOp::Add),
            Err(e) => {
                eprintln!("terasem-net rank {rank}: bench exchange failed: {e}");
                return EXIT_PEER_LOST;
            }
        }
    }
    let exchange_mean = CommTimings::mean_secs(&comm.timings.exchange);
    comm.timings = CommTimings::default();
    for i in 0..OP_REPS {
        if comm.allreduce_sum(i as f64).is_err() {
            eprintln!("terasem-net rank {rank}: bench allreduce failed");
            return EXIT_PEER_LOST;
        }
    }
    let allreduce_mean = CommTimings::mean_secs(&comm.timings.allreduce);
    if rank != 0 {
        return EXIT_OK;
    }
    // Report (rank 0): fit, then model-vs-measured under CostBreakdown.
    println!("terasem-net --bench-comm: {size} rank(s), local Unix-socket transport");
    let fitted = fit_alpha_beta(&samples);
    let asci = MachineModel::asci_red_333_single();
    let measured = match fitted {
        Some((alpha, beta)) => {
            println!(
                "  ping-pong fit: alpha = {:.2} us, beta = {:.3} ns/byte \
                 ({} samples over {:?} bytes)",
                alpha * 1e6,
                beta * 1e9,
                samples.len(),
                PING_SIZES
            );
            println!(
                "  ASCI-Red-333 preset: alpha = {:.2} us, beta = {:.3} ns/byte",
                asci.latency * 1e6,
                asci.inv_bandwidth * 1e9
            );
            Some(MachineModel::measured(alpha, beta, asci.flop_rate))
        }
        None => {
            println!("  ping-pong fit unavailable (need >= 2 ranks)");
            None
        }
    };
    let (msgs_call, words_call) = gs.traffic_per_call();
    if let Some(mean) = exchange_mean {
        println!(
            "  neighbor exchange (shear layer K={}, N={}, {} nbr msgs / {} words per call):",
            opts.kelem * opts.kelem,
            opts.order,
            msgs_call,
            words_call
        );
        println!("    measured mean: {:>9.2} us", mean * 1e6);
        for model in [measured.as_ref(), Some(&asci)].into_iter().flatten() {
            let est = exchange_cost(&layout, model);
            println!(
                "    {:<22} {:>9.2} us  (latency {:.2} us + bandwidth {:.3} us)",
                format!("model [{}]:", model.name),
                est.total() * 1e6,
                est.latency * 1e6,
                est.bandwidth * 1e6
            );
        }
    }
    if let Some(mean) = allreduce_mean {
        println!("  allreduce (8 bytes):");
        println!("    measured mean: {:>9.2} us", mean * 1e6);
        for model in [measured.as_ref(), Some(&asci)].into_iter().flatten() {
            println!(
                "    {:<22} {:>9.2} us",
                format!("model [{}]:", model.name),
                model.allreduce_time(size, 8) * 1e6
            );
        }
    }
    EXIT_OK
}

#[cfg(test)]
mod tests {
    use super::*;
    use sem_mesh::generators::box2d;
    use sem_ops::SemOps;

    /// The `scripts/net_smoke.sh` layout: box2d 3×3, periodic, N=4,
    /// RSB-partitioned over `p` ranks.
    fn smoke_layout(p: usize) -> RankLayout {
        let mesh = box2d(3, 3, [0.0, 1.0], [0.0, 1.0], true, true);
        let part = partition_rsb(&mesh, p);
        let ops = SemOps::new(mesh, 4);
        RankLayout::new(&ops.num.ids, ops.geo.npts, &part, p).unwrap()
    }

    /// Each rank's `(messages, words)` per gather-scatter call on the
    /// smoke layout. Neither the pattern construction nor RSB may drift
    /// silently: the launcher banner and the cost model report these.
    #[test]
    fn exchange_pattern_of_the_smoke_layout_is_pinned() {
        let want: [&[(u64, u64)]; 3] = [
            &[(1, 40), (1, 40)],
            &[(2, 38), (2, 40), (2, 40)],
            &[(3, 34), (3, 30), (3, 30), (3, 38)],
        ];
        for (p, want) in (2..=4).zip(want) {
            let layout = smoke_layout(p);
            let got: Vec<(u64, u64)> = (0..p).map(|r| layout.gs(r).traffic_per_call()).collect();
            assert_eq!(got, want, "P={p}");
        }
    }

    /// The exchange is charged at its critical path with exact bytes: at
    /// P=4 the busiest ranks send 3 messages, and rank 3 sends 38 words
    /// (304 bytes, not rounded to a whole number of bytes per message).
    #[test]
    fn exchange_cost_charges_exact_bytes() {
        let model = MachineModel::asci_red_333_single();
        let est = exchange_cost(&smoke_layout(4), &model);
        assert_eq!(est.compute, 0.0);
        assert_eq!(est.latency, 3.0 * model.latency);
        assert_eq!(est.bandwidth, 304.0 * model.inv_bandwidth);
    }

    #[test]
    fn solution_hash_is_sensitive_to_every_field() {
        let opts = LaunchOpts::for_tests();
        let mut s = build_solver(&opts);
        let h0 = solution_hash(&s);
        assert_eq!(h0, solution_hash(&s), "hash must be deterministic");
        s.vel[0][3] += 1e-15;
        let h1 = solution_hash(&s);
        assert_ne!(h0, h1, "velocity bits must matter");
        s.vel[0][3] -= 1e-15;
        s.pressure[0] = f64::from_bits(s.pressure[0].to_bits() ^ 1);
        assert_ne!(solution_hash(&s), h1, "pressure bits must matter");
    }
}
