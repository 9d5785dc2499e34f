//! `terasem-launch`: spawn, supervise, and recover a rank-parallel run.
//!
//! The same binary is both the parent and the rank worker: children are
//! re-executions of `current_exe()` with the identical argv plus the
//! `TERASEM_NET_RANK`/`TERASEM_NET_SIZE` environment selecting rank
//! mode. See `sem_net::launch` for the supervision protocol.

use sem_net::launch::{launch_main, parse_args};
use sem_net::rank::{rank_env, rank_main};
use sem_obs::exit;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(exit::USAGE);
        }
    };
    let code = match rank_env() {
        Some((rank, size)) => rank_main(&opts, rank, size),
        None => launch_main(&opts, &argv),
    };
    std::process::exit(code);
}
