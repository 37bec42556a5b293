//! Live dashboard: many standing k-SIR queries maintained through the
//! asynchronous ingestion pipeline.
//!
//! A production deployment does not re-run queries on demand — it holds
//! *subscriptions* (one per dashboard panel, per user, per alerting rule)
//! whose results must stay current as the window slides.  This example
//! registers a panel of standing queries with very different topic interests
//! over a Twitter-shaped stream, attaches a bounded delivery queue to each
//! panel, and replays the stream through `ingest_bucket_async`: ingestion
//! returns as soon as the index is updated and the touched shards are handed
//! to the refresh workers, while each panel's result changes stream into its
//! queue to be drained at the panel's own pace.  At the end it prints how
//! much evaluation work the delta-refresh rules saved, how the panels spread
//! over shards, what the epoch snapshots and the writer's copy-on-write
//! cost, and the stage latencies / readiness / flight-recorder panels —
//! rendered not from in-process accessors but by scraping a live
//! `ksir-obs` introspection server over real TCP, exactly as an external
//! dashboard or Prometheus would.
//!
//! Run with `cargo run --release --example live_dashboard`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use ksir::continuous::{DeliveryConfig, SubscriptionManager};
use ksir::datagen::{DatasetProfile, StreamGenerator};
use ksir::obs::{ObsConfig, ObsServer};
use ksir::{
    Algorithm, EngineConfig, KsirEngine, KsirQuery, QueryVector, ScoringConfig, WindowConfig,
};

/// One blocking `GET` against the obs server; returns the response body.
/// An example-sized HTTP client: the server answers every request with
/// `Connection: close`, so read-to-EOF is the whole protocol.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to obs server");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: obs\r\n\r\n").expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .expect("status line");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Pulls `"key": <integer>` out of a JSON object slice (the exporters emit
/// flat, predictable JSON — a full parser would be overkill here).
fn json_u64(object: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let start = object.find(&needle)? + needle.len();
    let digits: String = object[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Slices the `"name": { ... }` object out of an exported JSON body.
fn json_object<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let needle = format!("\"{name}\": {{");
    let start = body.find(&needle)? + needle.len();
    let end = body[start..].find('}')?;
    Some(&body[start..start + end])
}

fn main() -> Result<(), ksir::KsirError> {
    let profile = DatasetProfile::twitter().scaled(0.25).with_topics(20);
    let stream = StreamGenerator::new(profile, 77)?.generate()?;
    println!(
        "Streaming {} posts over {:.1} hours into a live dashboard…\n",
        stream.len(),
        stream.end_time().raw() as f64 / 60.0,
    );

    let config = EngineConfig::new(
        WindowConfig::new(6 * 60, 15)?,
        ScoringConfig::new(0.5, 1.0)?,
    );
    let engine = KsirEngine::new(stream.planted.phi().clone(), config)?;
    let num_topics = engine.num_topics();
    let mut dashboard = SubscriptionManager::new(engine);

    // Five topic mixes (narrow interests, mixed between the two index-based
    // algorithms), four panels each: the small/medium/large panels of one
    // mix are plan-compatible — same vector, same ε, same algorithm, only
    // `k` differs — so the shard clusters them behind one covering query,
    // whose one traversal answers every panel size at once; the medium size
    // appears twice (two users, same view), and both copies get the same
    // answer.  Each panel
    // consumes its result changes from a bounded delivery queue (capacity
    // 256, DropOldest): a panel that falls behind sheds its own oldest
    // updates instead of slowing ingestion down.
    let mut panels = Vec::new();
    for mix in 0..5 {
        let mut weights = vec![0.0; num_topics];
        weights[(2 * mix) % num_topics] = 0.7;
        weights[(2 * mix + 1) % num_topics] = 0.3;
        let vector = QueryVector::new(weights)?;
        let algorithm = if mix % 2 == 0 {
            Algorithm::Mttd
        } else {
            Algorithm::Mtts
        };
        for k in [2usize, 4, 4, 6] {
            let query = KsirQuery::new(k, vector.clone())?;
            let id = dashboard.subscribe(query, algorithm)?;
            let inbox = dashboard
                .attach_delivery(id, DeliveryConfig::default().with_capacity(256))
                .expect("panel just registered");
            panels.push((id, inbox));
        }
    }
    println!(
        "Registered {} standing queries, each with a bounded delivery queue.\n",
        dashboard.subscription_count()
    );

    // The introspection server shares the manager's telemetry bundle by
    // `Arc` and serves it for the whole replay; everything the dashboard
    // prints below comes back over this socket.
    let obs = ObsServer::spawn(Arc::clone(dashboard.telemetry()), ObsConfig::default())
        .expect("bind obs server on an ephemeral port");
    let obs_addr = obs.local_addr();
    println!("Introspection live at http://{obs_addr} for the whole replay.\n");

    // Pipelined replay: every `ingest_bucket_async` returns after the index
    // update and epoch-snapshot capture; the refresh workers evaluate
    // against the snapshots and stream panel updates into the queues while
    // the next slide's index write proceeds.  `sync()` is the barrier that
    // awaits every outstanding epoch.
    let tickets = dashboard.ingest_stream_async(stream.iter_pairs())?;
    dashboard.sync();
    // Tickets report what was decided *inline*; a shard still draining an
    // earlier epoch defers its decision to the owning worker, so the
    // inline/deferred split varies with worker timing.  The decision
    // counters themselves are deterministic — read the totals from the
    // metrics registry, which keeps them across shard retirements too.
    let deferred: usize = tickets.iter().map(|t| t.shards_deferred).sum();
    let registry = dashboard.telemetry().registry();
    let total = |name| registry.counter(name).get();
    let scheduled = total("shard.scheduled_slides");
    let undisturbed = total("shard.skipped_slides");
    println!(
        "{} slides ingested; resident classification scheduled {} shard refreshes \
         and proved {} shard-slides undisturbed ({} epoch handoffs rode a busy \
         shard's lane).\n",
        tickets.len(),
        scheduled,
        undisturbed,
        deferred,
    );
    // What the pipelining cost: epoch snapshots on the capture side (the
    // `snapshot.*` counters) and copy-on-write clones on the writer side
    // (EngineStats) — the two halves of the snapshot subsystem's bill.
    let engine_stats = dashboard.engine().stats();
    println!(
        "Snapshot bill: {} epoch snapshots served {} shard refreshes; the \
         writer paid {} cow clones ({} window / {} row-map / {} ranked-list) \
         to leave them immutable.\n",
        total("snapshot.epochs_captured"),
        total("snapshot.shard_snapshots"),
        engine_stats.window_cow_clones
            + engine_stats.topic_vector_cow_clones
            + engine_stats.ranked_cow_clones,
        engine_stats.window_cow_clones,
        engine_stats.topic_vector_cow_clones,
        engine_stats.ranked_cow_clones,
    );

    // Drain each panel's queue: the full change history (bounded by the
    // queue capacity) with the slide that produced each delta.
    for (id, inbox) in &panels {
        let updates = inbox.drain();
        println!(
            "{}: {} updates ({} shed by the bounded queue)",
            id,
            updates.len(),
            inbox.dropped(),
        );
        for delivery in updates.iter().rev().take(3).rev() {
            let u = &delivery.delta;
            println!(
                "  [slide {:>4}] score {:.3} -> {:.3}  +{:?} -{:?}  ({:?})",
                delivery.slide,
                u.score_before,
                u.score_after,
                u.added.iter().map(|e| e.raw()).collect::<Vec<_>>(),
                u.removed.iter().map(|e| e.raw()).collect::<Vec<_>>(),
                u.reason,
            );
        }
    }

    let stats = dashboard.stats();
    let evaluations = stats.slides * panels.len();
    println!(
        "\n{} slides × {} panels = {} potential evaluations; \
         {} refreshes, {} skipped by the delta rules ({:.1}% saved).",
        stats.slides,
        panels.len(),
        evaluations,
        stats.refreshes,
        stats.skips,
        100.0 * stats.skips as f64 / evaluations.max(1) as f64,
    );

    // How the panels spread over topic shards and what each shard skipped.
    println!("\nPer-shard skip rates:");
    for shard in dashboard.shard_stats() {
        println!(
            "  {}: {} panels, scheduled {}/{} slides, {} refreshes / {} skips ({:.1}% skipped)",
            shard.key,
            shard.subscriptions,
            shard.scheduled_slides,
            shard.scheduled_slides + shard.skipped_slides,
            shard.refreshes,
            shard.skips,
            100.0 * shard.skip_rate(),
        );
    }

    // How much of the refresh bill the shared evaluation plans absorbed:
    // plan-compatible panels cluster behind one covering query, traversed
    // once per disturbed cluster whatever its members' `k`, so the sharing
    // ratio — covering traversals per live subscription-slide — stays well
    // below 1 whenever clusters have more than one member.
    let covering = total("refresh.cluster.covering");
    let shared = total("refresh.cluster.shared");
    let clusters: usize = dashboard.shard_stats().iter().map(|s| s.clusters).sum();
    let subscription_slides = stats.slides * panels.len();
    let sharing_ratio = if subscription_slides == 0 {
        0.0
    } else {
        covering as f64 / subscription_slides as f64
    };
    println!(
        "\nShared plans: {} clusters over {} panels; {} covering traversals \
         served {} shared refreshes — sharing ratio {:.3} covering traversals \
         per live subscription-slide.",
        clusters,
        panels.len(),
        covering,
        shared,
        sharing_ratio,
    );

    // The same numbers, scraped back over HTTP from the live obs server —
    // the example is its own external dashboard from here on.
    let (status, metrics_json) = http_get(obs_addr, "/metrics.json");
    assert_eq!(status, 200, "GET /metrics.json");
    println!("\nStage latencies (GET /metrics.json):");
    for stage in [
        "ingest.admission_wait",
        "ingest.index_write",
        "ingest.project",
        "snapshot.capture",
        "refresh.shard",
        "worker.item",
        "delivery.e2e",
    ] {
        let Some(hist) = json_object(&metrics_json, stage) else {
            continue;
        };
        let count = json_u64(hist, "count").unwrap_or(0);
        if count == 0 {
            continue;
        }
        let micros = |key| json_u64(hist, key).unwrap_or(0) as f64 / 1e3;
        println!(
            "  {stage:<22} n={count:<6} p50 {:>9.1} µs  p95 {:>9.1} µs  max {:>9.1} µs",
            micros("p50_ns"),
            micros("p95_ns"),
            micros("max_ns"),
        );
    }

    // The SLO verdict a load balancer would poll: freshness lag and active
    // quarantines, both bounded by ReadinessPolicy.
    let (ready_status, ready) = http_get(obs_addr, "/ready");
    println!(
        "Readiness (GET /ready): HTTP {ready_status}, freshness lag {:.2} ms, \
         {} quarantined.",
        json_u64(&ready, "freshness_lag_ns").unwrap_or(0) as f64 / 1e6,
        json_u64(&ready, "quarantined").unwrap_or(0),
    );

    let (status, timeline) = http_get(obs_addr, "/timeline");
    assert_eq!(status, 200, "GET /timeline");
    println!(
        "Epoch timeline (GET /timeline): {} epochs traced, {} events shed from \
         the trace ring.",
        timeline.matches("\"epoch\":").count(),
        json_u64(&timeline, "truncated_events").unwrap_or(0),
    );

    // The flight recorder stays empty on a healthy run — records appear
    // only when a trigger (quarantine, late-drop burst, worker respawn,
    // injected fault) fires.  Dead air here is the good outcome.
    let (status, flight) = http_get(obs_addr, "/flight");
    assert_eq!(status, 200, "GET /flight");
    println!(
        "Flight recorder (GET /flight): {} postmortem records captured \
         (capacity {}).",
        flight.matches("\"seq\":").count(),
        json_u64(&flight, "capacity").unwrap_or(0),
    );

    let (status, prometheus) = http_get(obs_addr, "/metrics");
    assert_eq!(status, 200, "GET /metrics");
    println!(
        "Prometheus exposition (GET /metrics): {} metric lines (e.g. `{}`).",
        prometheus
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .count(),
        prometheus
            .lines()
            .find(|l| l.starts_with("ksir_shard_refreshes"))
            .unwrap_or_default(),
    );

    // Final state of every panel.
    println!("\nFinal dashboard:");
    for (id, _) in &panels {
        let result = dashboard.result(*id).expect("panel evaluated");
        println!(
            "  {}: {:?} (score {:.3})",
            id,
            result.elements.iter().map(|e| e.raw()).collect::<Vec<_>>(),
            result.score,
        );
    }
    Ok(())
}
