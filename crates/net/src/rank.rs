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
//! A rank lives through *epochs*, one transport lifetime each. When a
//! peer is lost, the rank announces a resync and enters the next epoch,
//! where the launcher has respawned every dead rank. Every rank of an
//! epoch, survivor or newcomer, starts it the same way (`join_epoch`): a
//! fresh supervisor, resumed at the newest checkpoint generation that
//! every rank holds, then a replay validated at every interval. The
//! epoch number is the recovery counter; past `--max-restarts` a lost
//! peer ends the process. A rank also exits when its stdin, a pipe only
//! the launcher writes to, reaches EOF: no rank outlives the launcher.
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
use sem_ns::{valid_generations, GiveUpReason, NsSolver, RunPolicy, RunReport, RunSupervisor};
use std::path::PathBuf;
use std::time::Duration;

/// Child environment: rank index (presence selects rank mode).
pub const ENV_RANK: &str = "TERASEM_NET_RANK";
/// Child environment: total ranks.
pub const ENV_SIZE: &str = "TERASEM_NET_SIZE";
/// Child environment: the job's socket directory; each epoch gets its
/// own namespace under it.
pub const ENV_SOCK_DIR: &str = "TERASEM_NET_SOCK_DIR";
/// Child environment: `rank@step[,rank@step..]` chaos-kill spec (first
/// life only).
pub const ENV_KILL: &str = "TERASEM_NET_KILL";
/// Child environment: the epoch this process enters the mesh at (0 for
/// the launch). Survivors of a lost peer bump their epoch in place; the
/// launcher hands every respawned rank the matching value so both sides
/// rendezvous on the same epoch socket namespace.
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
/// for every other transport failure. Both are recoverable by the next
/// epoch; distinguishing them keeps the logs honest about who failed
/// first.
fn comm_prefix(e: &NetError) -> &'static str {
    match e {
        NetError::Resync { .. } => "resync",
        _ => "peer-lost",
    }
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

/// The socket namespace of one epoch, under the job's socket directory:
/// each epoch's mesh bootstraps on fresh socket files, so survivors and
/// respawned ranks rendezvous without any launcher round-trip.
fn epoch_sock_dir(base: &str, epoch: u64) -> PathBuf {
    PathBuf::from(base).join(format!("epoch_{epoch}"))
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
    /// The mesh broke underneath us; enter the next epoch.
    NextEpoch,
}

/// Entry point of a rank process. Returns the process exit code.
///
/// The body is an *epoch loop*: each iteration bootstraps a transport
/// on the epoch's socket namespace, rewinds every rank to the newest
/// common checkpoint generation (`join_epoch`), and advances the solve.
/// When a peer dies, survivors do not exit: they announce a resync and
/// enter the next epoch, where the launcher has respawned the dead
/// ranks. A lost peer becomes a process exit only once the epoch number
/// reaches `--max-restarts`.
pub fn rank_main(opts: &LaunchOpts, rank: usize, size: usize) -> i32 {
    // Stdin's write end is held only by the launcher: once it is gone,
    // no respawn will come.
    sem_obs::exit::exit_when_parent_dies(&format!("terasem-net rank {rank}"));
    let Ok(sock_base) = std::env::var(ENV_SOCK_DIR) else {
        log_line!("terasem-net rank {rank}: {ENV_SOCK_DIR} unset");
        return EXIT_USAGE;
    };
    let mut epoch: u64 = std::env::var(ENV_EPOCH)
        .ok()
        .and_then(|e| e.parse().ok())
        .unwrap_or(0);
    if opts.bench_comm {
        let transport = match Transport::bootstrap(
            &epoch_sock_dir(&sock_base, epoch),
            rank,
            size,
            Duration::from_secs_f64(opts.timeout_secs),
        ) {
            Ok(t) => t,
            Err(e) => {
                log_line!("terasem-net rank {rank}: bootstrap failed: {e}");
                return EXIT_PEER_LOST;
            }
        };
        let mut comm = NetComm::new(transport);
        return bench_comm_main(opts, &mut comm);
    }
    let ckpt_dir = rank_ckpt_dir(&opts.dir, rank);
    if opts.telemetry {
        // `build_solver` constructs solvers with metrics off, so the
        // process-global observability switches are applied here: rank
        // stamp first (every record from now on carries it), then a
        // per-rank metrics sink in the rank's checkpoint directory so N
        // ranks never interleave on one stdout.
        sem_obs::set_rank(Some(rank as u32));
        sem_obs::set_enabled(true);
        sem_obs::trace::set_trace_enabled(true);
        if let Err(e) = std::fs::create_dir_all(&ckpt_dir) {
            log_line!("terasem-net rank {rank}: cannot create {}: {e}", ckpt_dir.display());
            return EXIT_USAGE;
        }
        let metrics_path = ckpt_dir.join("metrics.jsonl");
        match sem_obs::sink::FileSink::create(&metrics_path.to_string_lossy()) {
            Ok(sink) => sem_obs::sink::set_sink(Some(sem_obs::SinkHandle::new(sink).0)),
            Err(e) => {
                log_line!(
                    "terasem-net rank {rank}: cannot open metrics sink {}: {e}",
                    metrics_path.display()
                );
                return EXIT_USAGE;
            }
        }
    }
    let solver = build_solver(opts);
    let part = partition_rsb(&solver.ops.mesh, size);
    let layout = match RankLayout::new(&solver.ops.num.ids, solver.ops.geo.npts, &part, size) {
        Ok(l) => l,
        Err(e) => {
            log_line!("terasem-net rank {rank}: {e}");
            return EXIT_USAGE;
        }
    };
    let gs = layout.gs(rank);
    let kill_steps = kill_steps_from_env(rank);
    let mut barrier_ns: Option<u64> = None;
    loop {
        match run_epoch(
            opts,
            rank,
            size,
            &sock_base,
            epoch,
            &layout,
            &gs,
            &kill_steps,
            &mut barrier_ns,
        ) {
            EpochOutcome::Exit(code) => return code,
            EpochOutcome::NextEpoch => {
                epoch += 1;
                log_line!(
                    "terasem-net rank {rank}: mesh lost; entering epoch {epoch}/{}",
                    opts.max_restarts
                );
            }
        }
    }
}

/// The newest step every rank's ascending generation list holds;
/// `None` when they share none.
fn newest_common(gens: &[Vec<u64>]) -> Option<u64> {
    let (mine, rest) = gens.split_first()?;
    mine.iter()
        .rev()
        .copied()
        .find(|s| rest.iter().all(|g| g.contains(s)))
}

/// Start an epoch the same way on every rank, survivor or newcomer:
/// build the supervisor as a fresh process does and, in a recovery
/// epoch, allgather the valid checkpoint generations of every rank and
/// resume the newest one they all hold (from scratch when there is
/// none). The launch (epoch 0) starts from scratch whatever the job
/// directory holds.
fn join_epoch(
    opts: &LaunchOpts,
    rank: usize,
    epoch: u64,
    comm: &mut NetComm,
) -> Result<RunSupervisor, EpochOutcome> {
    let dir = rank_ckpt_dir(&opts.dir, rank);
    let mut solver = build_solver(opts);
    solver.cfg.run = RunPolicy::checkpointing(&dir, opts.ckpt_every, opts.keep_last);
    if opts.telemetry {
        solver.cfg.metrics = true;
        solver.cfg.rank = Some(rank as u32);
    }
    let mut sup = RunSupervisor::new(solver);
    if epoch == 0 {
        return Ok(sup);
    }
    let all = comm.allgather_u64s(&valid_generations(&dir)).map_err(|e| {
        let why = format!("{}: generation allgather: {e}", comm_prefix(&e));
        log_line!("terasem-net rank {rank}: epoch {epoch}: {why}");
        abort_outcome(comm, epoch, opts.max_restarts, &why)
    })?;
    match newest_common(&all) {
        Some(g) => match sup.resume_from_step(g) {
            Ok(_) => {
                log_line!("terasem-net rank {rank}: epoch {epoch}: resumed from generation {g}")
            }
            Err(e) => {
                log_line!("terasem-net rank {rank}: resume from generation {g} failed: {e}");
                return Err(EpochOutcome::Exit(EXIT_USAGE));
            }
        },
        None => log_line!("terasem-net rank {rank}: epoch {epoch}: restarting from scratch"),
    }
    Ok(sup)
}

/// One transport lifetime: bootstrap the epoch's mesh, rewind to the
/// newest common generation, run to the target with validation at
/// every interval, and classify how it ended.
#[allow(clippy::too_many_arguments)]
fn run_epoch(
    opts: &LaunchOpts,
    rank: usize,
    size: usize,
    sock_base: &str,
    epoch: u64,
    layout: &RankLayout,
    gs: &RankGs,
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
            log_line!("terasem-net rank {rank}: epoch {epoch} bootstrap failed: {e}");
            return EpochOutcome::Exit(EXIT_PEER_LOST);
        }
    };
    let mut comm = NetComm::new(transport);
    let mut sup = match join_epoch(opts, rank, epoch, &mut comm) {
        Ok(sup) => sup,
        Err(outcome) => return outcome,
    };
    // All transports up and all ranks rewound before stepping.
    if let Err(e) = comm.barrier() {
        log_line!("terasem-net rank {rank}: start barrier failed: {e}");
        return EpochOutcome::Exit(EXIT_PEER_LOST);
    }
    // Each rank's trace clock is process-local; the instant the *first*
    // start barrier releases is the shared reference that clock-aligns
    // the merged trace lanes (later epochs keep the original origin).
    let barrier_ref = *barrier_ns.get_or_insert_with(sem_obs::trace::now_ns);
    let (target, every) = (opts.steps, opts.ckpt_every.max(1));
    let result = sup.run_to_with(target, |s, _stats| {
        let step = s.step_index as u64;
        if kill_steps.contains(&step) {
            log_line!("terasem-net rank {rank}: chaos kill after committing step {step}");
            std::process::exit(EXIT_CHAOS_KILL);
        }
        if step.is_multiple_of(every) || step == target {
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
            log_line!("terasem-net rank {rank}: {err}");
            match &err.reason {
                GiveUpReason::Aborted(why) => {
                    abort_outcome(&mut comm, epoch, opts.max_restarts, why)
                }
                _ => EpochOutcome::Exit(EXIT_DIVERGED),
            }
        }
    }
}

/// Classify an aborted epoch: communication failures roll into the next
/// epoch while the epoch number is below `--max-restarts`; divergence is
/// always terminal.
fn abort_outcome(comm: &mut NetComm, epoch: u64, max_restarts: usize, why: &str) -> EpochOutcome {
    if !(why.starts_with("peer-lost:") || why.starts_with("resync:")) {
        return EpochOutcome::Exit(EXIT_DIVERGED);
    }
    if epoch >= max_restarts as u64 {
        return EpochOutcome::Exit(EXIT_PEER_LOST);
    }
    // Best-effort wakeup: peers blocked in long receives on still-alive
    // links fail fast with `NetError::Resync` instead of draining their
    // timeout, so the whole mesh converges on the next epoch quickly.
    comm.transport().announce_resync(epoch + 1);
    EpochOutcome::NextEpoch
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
            log_line!("terasem-net rank {rank}: final stats gather failed: {e}");
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
                log_line!("terasem-net rank {rank}: telemetry shipping failed: {e}");
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
        log_line!("terasem-net rank {rank}: bench barrier failed: {e}");
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
                    log_line!("terasem-net rank {rank}: ping-pong failed: {e}");
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
            log_line!("terasem-net rank {rank}: {e}");
            return EXIT_USAGE;
        }
    };
    let gs = layout.gs(rank);
    let mut field = layout.extract(rank, &solver.vel[0]);
    if let Err(e) = comm.barrier() {
        log_line!("terasem-net rank {rank}: {e}");
        return EXIT_PEER_LOST;
    }
    comm.timings = CommTimings::default();
    for _ in 0..OP_REPS {
        match comm.exchange(&gs.pack(&field)) {
            Ok(inbox) => gs.fold(&mut field, &inbox, GsOp::Add),
            Err(e) => {
                log_line!("terasem-net rank {rank}: bench exchange failed: {e}");
                return EXIT_PEER_LOST;
            }
        }
    }
    let exchange_mean = CommTimings::mean_secs(&comm.timings.exchange);
    comm.timings = CommTimings::default();
    for i in 0..OP_REPS {
        if comm.allreduce_sum(i as f64).is_err() {
            log_line!("terasem-net rank {rank}: bench allreduce failed");
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

    /// The newest generation every rank holds: 4 when one rank stopped
    /// early, 2 when a torn newest file on another rank dropped its 4,
    /// none when some rank holds nothing.
    #[test]
    fn newest_common_generation_is_the_newest_step_all_ranks_hold() {
        let (full, short) = (vec![2, 4, 6], vec![2, 4]);
        let torn = vec![2, 6];
        assert_eq!(newest_common(&[full.clone(), full.clone(), short.clone()]), Some(4));
        assert_eq!(newest_common(&[full.clone(), torn.clone(), short.clone()]), Some(2));
        assert_eq!(newest_common(&[full, torn, short, vec![]]), None);
        assert_eq!(newest_common(&[]), None);
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
