//! Readiness after synchronous ingestion: `ingest_bucket` closes every slide
//! with the pipeline's barrier, so an idle manager reads as fresh on
//! `/ready` and its `manager.*` gauges carry the settled numbers — however
//! long after the last slide the probe comes.

use std::time::Duration;

use ksir_continuous::SubscriptionManager;
use ksir_core::fixtures::paper_example;
use ksir_core::{Algorithm, KsirQuery};
use ksir_obs::{Readiness, ReadinessPolicy};
use ksir_types::QueryVector;

#[test]
fn sync_slides_leave_readiness_and_gauges_current() {
    let ex = paper_example();
    let mut mgr = SubscriptionManager::new(ex.empty_engine());
    let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
    mgr.subscribe(query, Algorithm::Mttd).unwrap();
    for (element, tv) in ex.stream().into_iter().take(3) {
        let end = element.ts;
        mgr.ingest_bucket(vec![(element, tv)], end).unwrap();
    }
    // Idle well past the freshness bound: every slide is fully refreshed,
    // so no epoch may still be open on the freshness clock.
    std::thread::sleep(Duration::from_millis(50));
    let policy = ReadinessPolicy::default().with_max_freshness_lag(Duration::from_millis(20));
    let readiness = Readiness::evaluate(mgr.telemetry(), &policy);
    assert_eq!(mgr.completed_epoch(), 3);
    assert!(readiness.ready, "{readiness:?}");
    assert_eq!(readiness.freshness_lag_nanos, 0);
    let registry = mgr.telemetry().registry();
    assert_eq!(
        registry.gauge("manager.slides").get(),
        mgr.stats().slides as u64,
        "the slides gauge lags the last sync slide"
    );
}
