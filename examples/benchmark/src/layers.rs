//! Per-layer metrics: isolated replays of the layers below the manager over
//! the same buckets, and the assembly of every layer figure of a traced run.

use std::hint::black_box;
use std::time::Instant;

use ksir::stream::{ActiveWindow, RankedLists};
use ksir::{ElementId, SocialElement, Timestamp, TopicId, WindowConfig};

use crate::inputs::Inputs;
use crate::replay::{new_engine, Repeat, CELF, MTTD, MTTS, SIEVE, TOPK};
use crate::spans::{Spans, NO_SPAN};
use crate::stats::{mean, quantile, ratio, Metric};
use crate::workloads::{Path, Workload};

/// Totals over the measured buckets of the three bare replays.
#[derive(Debug, Default)]
pub struct Isolated {
    pub slides: usize,
    pub elements: usize,
    /// Bare `KsirEngine::ingest_bucket`.
    pub engine_s: f64,
    pub refreshed: usize,
    pub touched_topics: usize,
    /// Bare `ActiveWindow`.
    pub window_insert_s: f64,
    pub window_advance_s: f64,
    /// Bare `RankedLists`, fed the tuples the engine replay produced.
    pub ranked_upsert_s: f64,
    pub ranked_upserts: usize,
    pub ranked_remove_s: f64,
    pub ranked_removes: usize,
    pub ranked_entries: usize,
}

type Tuple = (TopicId, ElementId, f64, Timestamp);

/// Replays the same buckets through a bare engine, a bare window and bare
/// ranked lists.  Warm-up buckets are replayed untimed so each layer is in
/// the state the manager's measured section found it in.
pub fn isolated_replays(
    inp: &Inputs,
    workload: &Workload,
    spans: &mut Spans,
) -> Result<Isolated, String> {
    spans.set_on(true);
    let err = |e: ksir::KsirError| e.to_string();
    let mut iso = Isolated::default();
    let mut engine = new_engine(inp, workload).map_err(err)?;
    // Per slide: the tuples the engine wrote and the ids it expired.
    let mut writes: Vec<(Vec<Tuple>, Vec<ElementId>)> = Vec::with_capacity(inp.buckets.len());
    for (i, bucket) in inp.buckets.iter().enumerate() {
        let items = bucket.items.clone();
        let span = spans.open("core.ingest_bucket", NO_SPAN, i as u64 + 1);
        let started = Instant::now();
        let report = engine.ingest_bucket(items, bucket.end).map_err(err)?;
        let elapsed = started.elapsed().as_secs_f64();
        spans.close(span);
        if i >= inp.warmup {
            iso.slides += 1;
            iso.elements += report.inserted;
            iso.engine_s += elapsed;
            iso.refreshed += report.refreshed;
            iso.touched_topics += report.delta.ranked.touched_topics();
        }
        let delta = &report.delta;
        let mut tuples = Vec::new();
        for id in delta
            .activated
            .iter()
            .chain(&delta.resurrected)
            .chain(&delta.refreshed)
        {
            let Some(vector) = engine.topic_vector(*id) else {
                continue;
            };
            for (topic, _) in vector.support() {
                if let Some((score, ts)) = engine.ranked_lists().list(topic).get(*id) {
                    tuples.push((topic, *id, score, ts));
                }
            }
        }
        writes.push((tuples, report.delta.expired));
    }
    drop(engine);

    let config = WindowConfig::new(workload.window, workload.bucket).map_err(err)?;
    let mut window = ActiveWindow::new(config);
    for (i, bucket) in inp.buckets.iter().enumerate() {
        let elements: Vec<SocialElement> = bucket.items.iter().map(|(e, _)| e.clone()).collect();
        let span = spans.open("stream.window", NO_SPAN, i as u64 + 1);
        let started = Instant::now();
        for element in elements {
            black_box(window.insert(element).map_err(err)?);
        }
        let inserted = Instant::now();
        black_box(window.parents_losing_children(bucket.end));
        black_box(window.advance_to(bucket.end).map_err(err)?);
        let advanced = Instant::now();
        spans.close(span);
        if i >= inp.warmup {
            iso.window_insert_s += (inserted - started).as_secs_f64();
            iso.window_advance_s += (advanced - inserted).as_secs_f64();
        }
    }
    drop(window);

    let mut ranked = RankedLists::new(workload.topics);
    for (i, (tuples, expired)) in writes.iter().enumerate() {
        let span = spans.open("stream.ranked", NO_SPAN, i as u64 + 1);
        let started = Instant::now();
        for &(topic, id, score, ts) in tuples {
            ranked.upsert(topic, id, score, ts);
        }
        let upserted = Instant::now();
        for id in expired {
            black_box(ranked.remove_everywhere(*id));
        }
        let removed = Instant::now();
        spans.close(span);
        black_box(ranked.take_delta());
        if i >= inp.warmup {
            iso.ranked_upsert_s += (upserted - started).as_secs_f64();
            iso.ranked_upserts += tuples.len();
            iso.ranked_remove_s += (removed - upserted).as_secs_f64();
            iso.ranked_removes += expired.len();
        }
    }
    iso.ranked_entries = ranked.total_entries();
    Ok(iso)
}

/// Every per-layer metric, from the last traced repeat `t`, the isolated
/// replays, and the untraced/traced throughputs of the alternating repeats.
/// Registry histograms have power-of-two buckets, so stage times are
/// reported as means (total ÷ samples), never as bucket-edge percentiles.
pub fn per_layer(
    inp: &Inputs,
    workload: &Workload,
    t: &Repeat,
    iso: &Isolated,
    untraced_rate: f64,
    traced_rate: f64,
) -> Vec<Metric> {
    let slides = t.counts.slides as f64;
    let reg = &t.registry;
    let refreshes = t.counts.refreshes as f64;
    let mean_us = |name: &str| reg.mean_seconds(name) * 1e6;
    let stream_s =
        iso.window_insert_s + iso.window_advance_s + iso.ranked_upsert_s + iso.ranked_remove_s;
    // On the sync path shards refresh on the caller's thread, inside the
    // ingest call; on the async path (a snapshot per epoch) they refresh on
    // the pool worker, behind it.
    let pipelined = reg.counter("snapshot.epochs_captured") > 0.0;
    let (inline_refresh_s, behind_call_s) = if pipelined {
        (0.0, reg.seconds("worker.item"))
    } else {
        (reg.seconds("refresh.shard"), 0.0)
    };
    // Everything the manager does for the measured slides, wherever it runs:
    // the ingest calls without their wait for admission, plus the worker's
    // items when the refresh runs behind the call.
    let manager_s = t.call_s - reg.seconds("ingest.admission_wait") + behind_call_s;
    // What the registry attributes of the time spent inside ingest calls.
    // Snapshot capture runs inside the projection, so it is not added again.
    let attributed = reg.seconds("ingest.index_write")
        + reg.seconds("ingest.project")
        + reg.seconds("ingest.admission_wait")
        + inline_refresh_s;
    let call_share = |seconds: f64| ratio(seconds, t.call_s);
    let pace_us = match workload.path {
        Path::Sync => 0.0,
        Path::Async { pace_us } => pace_us as f64,
    };
    let query_p50 = |a: usize| quantile(&t.query_us[a], 0.5);
    let probes = t.query_us[MTTS].len() as f64;

    let mut m = vec![
        Metric::new("datagen.generate_s", "s", inp.generate_s),
        Metric::new(
            "stream.window.insert_ns_per_element",
            "ns",
            ratio(iso.window_insert_s * 1e9, iso.elements as f64),
        ),
        Metric::new(
            "stream.window.advance_us_per_slide",
            "us",
            ratio(iso.window_advance_s * 1e6, iso.slides as f64),
        ),
        Metric::new(
            "stream.ranked.upsert_ns",
            "ns",
            ratio(iso.ranked_upsert_s * 1e9, iso.ranked_upserts as f64),
        ),
        Metric::new(
            "stream.ranked.remove_ns",
            "ns",
            ratio(iso.ranked_remove_s * 1e9, iso.ranked_removes as f64),
        ),
        Metric::new("stream.ranked.entries", "count", iso.ranked_entries as f64),
        Metric::new(
            "core.ingest.ns_per_element",
            "ns",
            ratio(iso.engine_s * 1e9, iso.elements as f64),
        ),
        Metric::new(
            "core.ingest.self_share",
            "ratio",
            1.0 - ratio(stream_s, iso.engine_s),
        ),
        Metric::new(
            "core.ingest.refreshed_per_slide",
            "count",
            ratio(iso.refreshed as f64, iso.slides as f64),
        ),
        Metric::new(
            "core.ingest.touched_topics_per_slide",
            "count",
            ratio(iso.touched_topics as f64, iso.slides as f64),
        ),
        Metric::new("core.query.mtts.p50_us", "us", query_p50(MTTS)),
        Metric::new("core.query.mttd.p50_us", "us", query_p50(MTTD)),
        Metric::new("core.query.celf.p50_us", "us", query_p50(CELF)),
        Metric::new("core.query.sieve.p50_us", "us", query_p50(SIEVE)),
        Metric::new("core.query.topk.p50_us", "us", query_p50(TOPK)),
        Metric::new(
            "core.query.mtts.p99_us",
            "us",
            quantile(&t.query_us[MTTS], 0.99),
        ),
        Metric::new(
            "core.query.mttd.p99_us",
            "us",
            quantile(&t.query_us[MTTD], 0.99),
        ),
        Metric::new(
            "core.query.mtts.evaluated_ratio",
            "ratio",
            ratio(t.evaluated_ratio[MTTS], probes),
        ),
        Metric::new(
            "core.query.mttd.evaluated_ratio",
            "ratio",
            ratio(t.evaluated_ratio[MTTD], probes),
        ),
        Metric::new(
            "core.query.mtts.k5_p50_us",
            "us",
            quantile(&t.k5_us[MTTS], 0.5),
        ),
        Metric::new(
            "core.query.mtts.k25_p50_us",
            "us",
            quantile(&t.k25_us[MTTS], 0.5),
        ),
        Metric::new(
            "core.query.mttd.k5_p50_us",
            "us",
            quantile(&t.k5_us[MTTD], 0.5),
        ),
        Metric::new(
            "core.query.mttd.k25_p50_us",
            "us",
            quantile(&t.k25_us[MTTD], 0.5),
        ),
        Metric::new(
            "core.query.measured_share",
            "ratio",
            ratio(t.probe_s, t.measured_s),
        ),
        Metric::new(
            "continuous.slide.self_share",
            "ratio",
            1.0 - ratio(iso.engine_s, manager_s),
        ),
        Metric::new(
            "continuous.index_write.mean_us",
            "us",
            mean_us("ingest.index_write"),
        ),
        // How the time inside ingest calls splits over the registry's
        // stages; together with the unattributed share these sum to one.
        Metric::new(
            "continuous.index_write.share",
            "ratio",
            call_share(reg.seconds("ingest.index_write")),
        ),
        Metric::new(
            "continuous.project.share",
            "ratio",
            call_share(reg.seconds("ingest.project")),
        ),
        Metric::new(
            "continuous.admission_wait.share",
            "ratio",
            call_share(reg.seconds("ingest.admission_wait")),
        ),
        Metric::new(
            "continuous.refresh.inline_share",
            "ratio",
            call_share(inline_refresh_s),
        ),
        Metric::new(
            "continuous.unattributed_share",
            "ratio",
            1.0 - call_share(attributed),
        ),
        Metric::new(
            "continuous.refresh.shard_mean_us",
            "us",
            mean_us("refresh.shard"),
        ),
        Metric::new(
            "continuous.refresh.busy_share",
            "ratio",
            ratio(reg.seconds("refresh.shard"), t.measured_s - t.probe_s),
        ),
        Metric::new(
            "continuous.refresh.per_slide",
            "count",
            ratio(refreshes, slides),
        ),
        Metric::new(
            "continuous.skip_ratio",
            "ratio",
            ratio(t.counts.skips as f64, refreshes + t.counts.skips as f64),
        ),
        Metric::new(
            "continuous.delta_share",
            "ratio",
            ratio(
                reg.counter("refresh.mode.delta"),
                reg.counter("refresh.mode.delta") + reg.counter("refresh.mode.full"),
            ),
        ),
        Metric::new(
            "continuous.gain_evals_per_refresh",
            "count",
            ratio(t.counts.gain_evaluations as f64, refreshes),
        ),
        Metric::new(
            "continuous.cluster.shared_ratio",
            "ratio",
            ratio(reg.counter("refresh.cluster.shared"), refreshes),
        ),
        Metric::new(
            "continuous.cluster.covering_per_slide",
            "count",
            ratio(reg.counter("refresh.cluster.covering"), slides),
        ),
        Metric::new(
            "continuous.worker.busy_share",
            "ratio",
            ratio(reg.seconds("worker.item"), t.measured_s - t.probe_s),
        ),
        Metric::new("continuous.backlog_max", "count", t.backlog_max as f64),
        // How late the open-loop generator started a slide, as a share of
        // the pace interval (zero on the closed-loop workloads).
        Metric::new(
            "continuous.generator_late_p50_share",
            "ratio",
            ratio(quantile(&t.late_us, 0.5), pace_us),
        ),
        Metric::new(
            "continuous.generator_late_max_share",
            "ratio",
            ratio(t.late_us.iter().copied().fold(0.0, f64::max), pace_us),
        ),
        Metric::new("slide.p99_ms", "ms", quantile(&t.slide_ms, 0.99)),
        Metric::new(
            "snapshot.capture.share",
            "ratio",
            call_share(reg.seconds("snapshot.capture")),
        ),
        Metric::new(
            "snapshot.cow_clones_per_slide",
            "count",
            ratio(t.cow_clones as f64, slides),
        ),
        Metric::new(
            "snapshot.entries_copied_per_slide",
            "count",
            ratio(reg.counter("snapshot.entries_copied"), slides),
        ),
        Metric::new(
            "snapshot.shard_snapshots_per_slide",
            "count",
            ratio(reg.counter("snapshot.shard_snapshots"), slides),
        ),
        Metric::new(
            "delivery.enqueued_per_slide",
            "count",
            ratio(reg.counter("delivery.enqueued"), slides),
        ),
        Metric::new("delivery.dropped", "count", reg.counter("delivery.dropped")),
        Metric::new(
            "delivery.e2e_enqueue.mean_ms",
            "ms",
            t.counted_registry.mean_seconds("delivery.e2e") * 1e3,
        ),
        Metric::new("delivery.p99_ms", "ms", quantile(&t.each_delivery_ms, 0.99)),
        Metric::new(
            "telemetry.render_prometheus_us",
            "us",
            t.render_prometheus_us,
        ),
        Metric::new("obs.scrape_metrics_us", "us", t.scrape_metrics_us),
        Metric::new(
            "trace.overhead_share",
            "ratio",
            1.0 - ratio(traced_rate, untraced_rate),
        ),
    ];
    // Harness dequeue minus the program's own ingest-to-enqueue age: what
    // the consumer side adds.  The program stamps a slide after its index
    // write, the harness at the start (or due time) of the call, so the
    // difference also carries that head of the call.
    let drain_lag =
        mean(&t.each_delivery_ms) - t.counted_registry.mean_seconds("delivery.e2e") * 1e3;
    m.push(Metric::new("delivery.drain_lag.mean_ms", "ms", drain_lag));
    m
}
