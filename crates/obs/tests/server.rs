//! End-to-end exercises of the introspection server over real TCP: an
//! ephemeral-port boot against a bare telemetry bundle, readiness flips
//! under induced stall/quarantine, and the acceptance scenario — a live
//! pipelined `SubscriptionManager` run whose `/metrics` scrape parses as
//! valid Prometheus exposition text while `/timeline` and `/flight` carry
//! the run's story.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ksir_continuous::{
    DeliveryConfig, ShardConfig, SubscriptionId, SubscriptionManager, Telemetry, TelemetryConfig,
};
use ksir_core::stream::WindowConfig;
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, ScoringConfig};
use ksir_datagen::{DatasetProfile, GeneratedStream, StreamGenerator};
use ksir_obs::{ObsConfig, ObsServer, ReadinessPolicy};
use ksir_types::{DenseTopicWordTable, QueryVector};

/// One blocking HTTP GET over a fresh connection; returns (status, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to obs server");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Line-level Prometheus text-exposition check: every non-empty line is a
/// `# HELP`/`# TYPE` comment or a `name[{labels}] value` sample with a
/// parseable numeric value and a sane metric name.
fn assert_valid_prometheus(text: &str) {
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            assert!(
                comment.starts_with("HELP ") || comment.starts_with("TYPE "),
                "unexpected comment: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has name and value");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable value in: {line}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name in: {line}"
        );
        if let Some(rest) = series.split_once('{') {
            assert!(rest.1.ends_with('}'), "unterminated labels in: {line}");
        }
        samples += 1;
    }
    assert!(samples > 0, "exposition must carry samples");
}

#[test]
fn server_round_trips_all_endpoints_over_tcp() {
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
    telemetry.registry().counter("manager.slides").inc();
    let server = ObsServer::spawn(Arc::clone(&telemetry), ObsConfig::default()).unwrap();
    let addr = server.local_addr();

    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("ksir_manager_slides 1"));
    assert_valid_prometheus(&body);

    let (status, body) = http_get(addr, "/metrics.json");
    assert_eq!(status, 200);
    assert!(body.contains("\"manager.slides\": 1"));

    let (status, body) = http_get(addr, "/health");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\": \"ok\""));

    let (status, body) = http_get(addr, "/timeline");
    assert_eq!(status, 200);
    assert!(body.contains("\"epochs\""));

    let (status, body) = http_get(addr, "/flight");
    assert_eq!(status, 200);
    assert!(body.contains("\"records\""));

    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    server.shutdown();
    assert!(
        TcpStream::connect(addr).is_err() || http_get_would_fail(addr),
        "listener must be gone after shutdown"
    );
}

/// After shutdown the port may linger in the kernel backlog for an instant;
/// a connection that cannot complete a request counts as "gone".
fn http_get_would_fail(addr: std::net::SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return true;
    };
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    if write!(stream, "GET /health HTTP/1.1\r\n\r\n").is_err() {
        return true;
    }
    let mut buf = [0u8; 1];
    !matches!(stream.read(&mut buf), Ok(n) if n > 0)
}

#[test]
fn ready_flips_on_stall_and_quarantine_and_recovers() {
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
    let config = ObsConfig::default().with_readiness(
        ReadinessPolicy::default().with_max_freshness_lag(Duration::from_millis(1)),
    );
    let server = ObsServer::spawn(Arc::clone(&telemetry), config).unwrap();
    let addr = server.local_addr();

    let (status, _) = http_get(addr, "/ready");
    assert_eq!(status, 200, "fresh bundle is ready");

    // Induced watermark stall: epoch 1 is stamped at ingest but never
    // retired, so its age keeps growing past the 1ms bound.
    telemetry.freshness().stamp(1, telemetry.now_nanos());
    std::thread::sleep(Duration::from_millis(10));
    let (status, body) = http_get(addr, "/ready");
    assert_eq!(status, 503, "stalled watermark must flip readiness");
    assert!(body.contains("watermark stall"));
    telemetry.freshness().retire_through(1);
    let (status, _) = http_get(addr, "/ready");
    assert_eq!(status, 200, "retiring the epoch restores readiness");

    // Induced quarantine: the live gauge is what /ready consults.
    telemetry.registry().gauge("shard.quarantine_active").set(1);
    let (status, body) = http_get(addr, "/ready");
    assert_eq!(status, 503);
    assert!(body.contains("quarantined"));
    telemetry.registry().gauge("shard.quarantine_active").set(0);
    let (status, _) = http_get(addr, "/ready");
    assert_eq!(status, 200);

    server.shutdown();
}

/// Small planted workload (mirrors the continuous-crate telemetry tests).
fn planted_manager(
    seed: u64,
    config: ShardConfig,
) -> (
    SubscriptionManager<DenseTopicWordTable>,
    Vec<SubscriptionId>,
    GeneratedStream,
) {
    let profile = DatasetProfile::twitter().scaled(0.02).with_topics(12);
    let stream = StreamGenerator::new(profile, seed)
        .unwrap()
        .generate()
        .unwrap();
    let window = WindowConfig::new(120, 15).unwrap();
    let engine: KsirEngine<DenseTopicWordTable> = KsirEngine::new(
        stream.planted.phi().clone(),
        EngineConfig::new(window, ScoringConfig::default()),
    )
    .unwrap();
    let mut mgr = SubscriptionManager::with_shard_config(engine, config);
    let algorithms = [Algorithm::Mtts, Algorithm::Mttd, Algorithm::Celf];
    let mut subs = Vec::new();
    for i in 0..3 {
        let mut narrow = vec![0.0; 12];
        narrow[(4 * i) % 12] = 0.8;
        narrow[(4 * i + 1) % 12] = 0.2;
        let q = KsirQuery::new(4, QueryVector::new(narrow).unwrap()).unwrap();
        subs.push(mgr.subscribe(q, algorithms[i % 3]).unwrap());
    }
    (mgr, subs, stream)
}

/// The PR's acceptance scenario: scrape a **live** pipelined run.  The
/// `/metrics` body parses as Prometheus exposition text, `/metrics.json`
/// carries the freshness/e2e metrics, `/timeline` reconstructs the run, and
/// the e2e freshness oracle holds: `delivery.e2e` observed exactly one
/// sample per delivered result delta.
#[test]
fn live_pipelined_run_is_scrapable_and_e2e_oracle_holds() {
    let config = ShardConfig::default()
        .with_threads(Some(2))
        .with_telemetry(TelemetryConfig::default().with_trace_capacity(1 << 20));
    let (mut mgr, subs, stream) = planted_manager(11, config);
    let receivers: Vec<_> = subs
        .iter()
        .map(|id| {
            mgr.attach_delivery(*id, DeliveryConfig::default().with_capacity(1 << 16))
                .unwrap()
        })
        .collect();

    let server = ObsServer::spawn(Arc::clone(mgr.telemetry()), ObsConfig::default()).unwrap();
    let addr = server.local_addr();

    mgr.ingest_stream_async(stream.iter_pairs()).unwrap();
    // Scrape mid-flight: whatever state the run is in must render cleanly.
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_valid_prometheus(&body);
    mgr.sync();

    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert_valid_prometheus(&body);
    assert!(body.contains("ksir_delivery_e2e_count"));
    assert!(body.contains("ksir_manager_freshness_lag"));

    let (status, body) = http_get(addr, "/metrics.json");
    assert_eq!(status, 200);
    assert!(body.contains("\"delivery.e2e\""));
    assert!(body.contains("\"delivery.queue_depth\""));

    let (status, body) = http_get(addr, "/timeline");
    assert_eq!(status, 200);
    assert!(body.contains("\"truncated_events\": 0"));

    // A settled, healthy run is ready.
    let (status, _) = http_get(addr, "/ready");
    assert_eq!(status, 200);

    // E2E freshness oracle: one `delivery.e2e` sample per delivered delta
    // (ample capacity: nothing shed, every stamped slide still resident).
    let drained: u64 = receivers.iter().map(|rx| rx.drain().len() as u64).sum();
    assert!(drained > 0, "run must deliver results");
    let registry = mgr.telemetry().registry();
    assert_eq!(registry.histogram("delivery.e2e").count(), drained);
    assert_eq!(registry.histogram("delivery.e2e.dropped").count(), 0);

    server.shutdown();
}

/// Scraping has no side effects: a threaded run polled over TCP for its
/// whole replay makes the same refresh decisions as an unobserved serial
/// twin (same seed, same subscriptions).
#[test]
fn scraped_run_makes_the_same_decisions_as_an_unobserved_twin() {
    let (mut mgr, subs, stream) = planted_manager(11, ShardConfig::default());
    let receivers: Vec<_> = subs
        .iter()
        .map(|id| {
            mgr.attach_delivery(*id, DeliveryConfig::default().with_capacity(1 << 16))
                .unwrap()
        })
        .collect();
    let server = ObsServer::spawn(Arc::clone(mgr.telemetry()), ObsConfig::default()).unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            loop {
                for path in ["/metrics", "/metrics.json"] {
                    assert_eq!(http_get(addr, path).0, 200);
                    scrapes += 1;
                }
                if stop.load(Ordering::Acquire) {
                    return scrapes;
                }
            }
        })
    };
    mgr.ingest_stream_async(stream.iter_pairs()).unwrap();
    mgr.sync();
    stop.store(true, Ordering::Release);
    assert!(scraper.join().unwrap() > 0);
    server.shutdown();

    let delivered: usize = receivers.iter().map(|rx| rx.drain().len()).sum();
    assert!(delivered > 0, "run must deliver results");

    let (mut twin, _, twin_stream) = planted_manager(11, ShardConfig::unsharded());
    twin.ingest_stream(twin_stream.iter_pairs()).unwrap();
    assert_eq!(
        mgr.stats(),
        twin.stats(),
        "a live scraper must not change any refresh decision"
    );
}
