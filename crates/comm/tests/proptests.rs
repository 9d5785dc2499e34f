//! Property-based tests of the α–β cost model: monotonicity in bytes,
//! flops and rank count.
//!
//! Properties run as explicit seeded loops over [`sem_linalg::rng`]'s
//! SplitMix64 generator; a failure message prints the exact case seed.

use sem_comm::MachineModel;
use sem_linalg::rng::forall;

const CASES: usize = 100;

/// Cost model monotonicity: more bytes, more flops, or more ranks in a
/// tree never decreases the predicted time.
#[test]
fn model_monotone() {
    forall("model_monotone", 0xc0bb_0003, CASES, |rng| {
        let bytes = rng.next_u64() % 1_000_000;
        let flops = rng.next_u64() % 1_000_000_000;
        let p = rng.range(2, 2048);
        let m = MachineModel::asci_red_333_single();
        assert!(m.ptp_time(bytes + 1) >= m.ptp_time(bytes));
        assert!(m.compute_time(flops + 1) >= m.compute_time(flops));
        assert!(m.tree_fan_in_out(2 * p, 8) >= m.tree_fan_in_out(p, 8));
        assert!(m.latency_lower_bound(p) >= 0.0);
    });
}
