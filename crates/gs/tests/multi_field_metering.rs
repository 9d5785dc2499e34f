//! The multi-field exchange (`GsHandle::gs_fields`) is one exchange:
//! it meters one `GsCalls` and `fields × copies` `GsWords`, and an armed
//! `GsExchange` fault fires once for all fields and leaves every field
//! untouched. A binary of its own, because the `sem_obs` counters and
//! the fault registry are process-global.

use sem_gs::{GsHandle, GsOp};
use sem_linalg::rng::forall;
use sem_obs::counters::{self, Counter};
use sem_obs::fault::{self, FaultSite};

#[test]
fn one_exchange_meters_once_and_drops_whole() {
    sem_obs::set_enabled(true);
    fault::reset();
    forall("gs_fields_metering", 0x65c0_0011, 50, |rng| {
        let n = rng.range(1, 60);
        let ids: Vec<usize> = (0..n).map(|_| rng.index(20)).collect();
        let fields = rng.range(1, 5);
        let h = GsHandle::new(&ids);
        // Shared copies of one scalar field: every slot whose id repeats.
        let copies = ids
            .iter()
            .filter(|&&g| ids.iter().filter(|&&o| o == g).count() >= 2)
            .count() as u64;
        let data = rng.vec(n * fields, -5.0, 5.0);

        let mut u = data.clone();
        let c0 = counters::snapshot();
        h.gs_fields(&mut u, fields, GsOp::Add);
        let d = counters::snapshot().delta(&c0);
        assert_eq!(d.get(Counter::GsCalls), 1);
        assert_eq!(d.get(Counter::GsWords), fields as u64 * copies);

        let mut u = data.clone();
        fault::arm(FaultSite::GsExchange);
        let c0 = counters::snapshot();
        h.gs_fields(&mut u, fields, GsOp::Add);
        let d = counters::snapshot().delta(&c0);
        assert!(fault::take_fired(FaultSite::GsExchange), "the probe fires");
        assert!(!fault::any_armed(), "one arming is consumed by one call");
        assert_eq!(d.get(Counter::FaultsInjected), 1);
        assert_eq!(
            d.get(Counter::GsCalls),
            0,
            "a dropped exchange meters nothing"
        );
        assert_eq!(u, data, "a dropped exchange leaves every field untouched");
    });
    fault::reset();
}
