//! Standing-query maintenance scenario shared by the `continuous*` benches
//! and the CI perf gate (`perf_gate`).
//!
//! The workload the `ksir-continuous` subsystem exists for: a Twitter-shaped
//! stream replayed bucket by bucket while a panel of standing queries must be
//! kept current.  Three maintenance strategies are measured over the *same*
//! pre-generated stream from a fresh engine each run, so timing differences
//! are exactly the maintenance saving:
//!
//! * [`MaintenanceScenario::run_recompute`] — the naive baseline: re-run
//!   every query after every bucket, no delta rules at all.
//! * [`MaintenanceScenario::run_managed`] with
//!   [`ShardConfig::unsharded`](ksir_continuous::ShardConfig::unsharded) —
//!   PR-1's serial delta refresh: one shard, one thread, per-subscription
//!   skip rules.
//! * [`MaintenanceScenario::run_managed`] with the default config — the
//!   sharded path: topic-keyed shards scheduled by projected touch filters,
//!   refreshed on the long-lived worker pool.
//!
//! [`MaintenanceScenario::run_async`] additionally covers the asynchronous
//! pipeline: `pipeline_depth = 1` is the quiesce-before-write barrier,
//! depth ≥ 2 the snapshot-backed pipelined mode whose ingest-to-ingest
//! interval the CI perf gate tracks.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ksir_continuous::{
    DeliveryConfig, ManagerStats, OverflowPolicy, ShardConfig, ShardStats, SnapshotStats,
    SubscriptionManager,
};
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, ScoringConfig};
use ksir_datagen::{DatasetProfile, GeneratedStream, StreamGenerator};
use ksir_obs::{ObsConfig, ObsServer};
use ksir_stream::WindowConfig;
use ksir_types::{DenseTopicWordTable, QueryVector};

/// A pre-generated stream plus the standing-query panel to maintain over it.
#[derive(Debug)]
pub struct MaintenanceScenario {
    /// The element stream, replayed identically by every strategy.
    pub stream: GeneratedStream,
    /// The standing queries and their algorithms.
    pub queries: Vec<(KsirQuery, Algorithm)>,
    window: WindowConfig,
    scoring: ScoringConfig,
}

/// Timing and work counters of one maintenance run.
#[derive(Debug, Clone)]
pub struct MaintenanceRun {
    /// Wall-clock time for the full replay (ingestion + refreshes).
    pub elapsed: Duration,
    /// Slide/refresh/skip counters (recompute runs report all-refresh).
    pub stats: ManagerStats,
    /// Per-shard counters (empty for the recompute baseline).
    pub shard_stats: Vec<ShardStats>,
}

impl MaintenanceRun {
    /// Fraction of slide-time evaluations the delta rules skipped.
    pub fn skip_ratio(&self) -> f64 {
        let total = self.stats.refreshes + self.stats.skips;
        if total == 0 {
            0.0
        } else {
            self.stats.skips as f64 / total as f64
        }
    }

    /// Maintained subscription-slides per second of wall time.
    pub fn throughput(&self) -> f64 {
        let evaluations = self.stats.refreshes + self.stats.skips;
        if self.elapsed.is_zero() {
            0.0
        } else {
            evaluations as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Timing and work counters of one asynchronous (pipelined) maintenance run.
#[derive(Debug, Clone)]
pub struct AsyncMaintenanceRun {
    /// Total time spent inside `ingest_bucket_async` — the latency the
    /// ingestion path actually observes, excluding all refresh/delivery work
    /// that runs behind it.
    pub ingest_return: Duration,
    /// Worst single-bucket ingest-return latency.
    pub max_ingest_return: Duration,
    /// Wall time of the ingestion loop alone (first ingest started → last
    /// ingest returned), i.e. `slides ×` the mean **ingest-to-ingest
    /// interval** under refresh load.  Unlike `ingest_return` this includes
    /// the pipeline-admission waits, so it is the number the epoch overlap
    /// actually improves: with `pipeline_depth = 1` every interval contains
    /// the previous slide's full refresh compute, with depth ≥ 2 it does
    /// not.
    pub ingest_span: Duration,
    /// Full wall time of the replay, including the final sync barrier and
    /// the consumer thread's drain.
    pub elapsed: Duration,
    /// Slide/refresh/skip counters after the final sync (decision-identical
    /// to the synchronous paths).
    pub stats: ManagerStats,
    /// Per-shard counters after the final sync.
    pub shard_stats: Vec<ShardStats>,
    /// Snapshot-capture counters after the final sync.
    pub snapshots: SnapshotStats,
    /// Copy-on-write clones the writer paid for live snapshots (window +
    /// topic vectors + ranked lists).
    pub cow_clones: usize,
    /// Deltas the consumer thread drained.
    pub delivered: u64,
    /// Deltas shed by the bounded queues' overflow policy.
    pub dropped: u64,
}

impl AsyncMaintenanceRun {
    /// Fraction of slide-time evaluations the delta rules skipped.
    pub fn skip_ratio(&self) -> f64 {
        let total = self.stats.refreshes + self.stats.skips;
        if total == 0 {
            0.0
        } else {
            self.stats.skips as f64 / total as f64
        }
    }

    /// Mean ingest-to-ingest interval under refresh load.
    pub fn ingest_interval(&self) -> Duration {
        if self.stats.slides == 0 {
            Duration::ZERO
        } else {
            self.ingest_span / self.stats.slides as u32
        }
    }
}

/// Work counters of one shared-plans probe run
/// ([`MaintenanceScenario::run_shared_probe`]): the same managed replay as
/// [`MaintenanceScenario::run_managed`], with the scoring-pass total and the
/// cluster counters the `per_subscription` CI gate compares between the
/// clustered (`shared_plans = true`) and per-subscription paths.
#[derive(Debug, Clone)]
pub struct SharedPlansRun {
    /// Wall-clock time for the full replay (ingestion + refreshes).
    pub elapsed: Duration,
    /// Slide/refresh/skip counters — pinned identical between the
    /// `shared_plans` on and off runs.
    pub stats: ManagerStats,
    /// Per-shard counters; the cluster totals
    /// ([`ShardStats::covering_evaluations`] /
    /// [`ShardStats::shared_refreshes`]) live here.
    pub shard_stats: Vec<ShardStats>,
    /// Total scoring passes across every refresh (the
    /// `refresh.gain_evaluations` telemetry counter) — deterministic, so the
    /// structural saving of plan sharing can be asserted exactly,
    /// independent of timer noise.
    pub gain_evaluations: u64,
    /// Standing queries maintained over the replay.
    pub subscriptions: usize,
}

impl SharedPlansRun {
    /// Covering traversals performed across all shards (0 with
    /// `shared_plans` off).
    pub fn covering_evaluations(&self) -> usize {
        self.shard_stats
            .iter()
            .map(|s| s.covering_evaluations)
            .sum()
    }

    /// Refreshes served by their cluster's covering traversal instead of one
    /// of their own (0 with `shared_plans` off).
    pub fn shared_refreshes(&self) -> usize {
        self.shard_stats.iter().map(|s| s.shared_refreshes).sum()
    }

    /// Mean scoring passes per maintained subscription over the whole
    /// replay — the deterministic measure the `per_subscription` CI gate
    /// compares.  Both runs replay the same slides, so normalising by the
    /// population alone preserves the clustered/unclustered ratio.
    pub fn passes_per_subscription(&self) -> f64 {
        if self.subscriptions == 0 {
            0.0
        } else {
            self.gain_evaluations as f64 / self.subscriptions as f64
        }
    }
}

impl MaintenanceScenario {
    /// The standard workload: a ~10k-element / 50-topic Twitter-shaped
    /// stream, a 6-hour window with 15-minute buckets, and 16 narrow
    /// standing queries (1–2 support topics each — users follow a handful of
    /// topics, not all fifty), alternating MTTD and MTTS.
    pub fn standard() -> Self {
        Self::sized(1.67, 16)
    }

    /// A scaled-down variant for smoke tests.
    pub fn smoke() -> Self {
        Self::sized(0.1, 8)
    }

    /// The shared-plans workload at full scale: 100 000 standing queries
    /// over a small stream — the population, not the stream, is the load.
    /// See [`MaintenanceScenario::zipf_population`].
    pub fn shared_standard() -> Self {
        Self::zipf_population(100_000)
    }

    /// A scaled-down shared-plans population for smoke runs and unit tests.
    pub fn shared_smoke() -> Self {
        Self::zipf_population(2_000)
    }

    /// A population of `num_subscriptions` standing queries drawn from a
    /// fixed pool of 48 **plan templates** (query vector + algorithm) with
    /// Zipf(1) popularity — the subscriber-heavy regime shared evaluation
    /// plans exist for: many users follow the same trending topic mixes and
    /// differ only in how many representatives they ask for (`k` cycles
    /// through 2/4/6/8 by registration order).
    ///
    /// Templates use only the index-traversal algorithms (MTTS, MTTD,
    /// top-k representative): the whole-window baselines would make the
    /// unclustered control run quadratic in the population.  Sampling uses a fixed-seed LCG,
    /// so the population — and with it every scoring-pass count — is
    /// deterministic across runs and hosts.
    pub fn zipf_population(num_subscriptions: usize) -> Self {
        const TEMPLATES: usize = 48;
        let profile = DatasetProfile::twitter().scaled(0.05).with_topics(50);
        let stream = StreamGenerator::new(profile, 4242)
            .unwrap()
            .generate()
            .unwrap();
        let num_topics = stream.planted.num_topics();
        let templates: Vec<(QueryVector, Algorithm)> = (0..TEMPLATES)
            .map(|t| {
                let mut weights = vec![0.0; num_topics];
                // Distinct 2-topic mixes: the `t / 25` nudge keeps the
                // second topic from colliding when `2t` wraps mod 50.
                weights[(2 * t) % num_topics] = 0.7;
                weights[(2 * t + 7 + t / 25) % num_topics] = 0.3;
                let algorithm = match t % 3 {
                    0 => Algorithm::Mtts,
                    1 => Algorithm::Mttd,
                    _ => Algorithm::TopkRepresentative,
                };
                (QueryVector::new(weights).unwrap(), algorithm)
            })
            .collect();
        // Zipf(1) popularity over template ranks: cumulative weights once,
        // then one LCG draw + binary search per subscription.
        let mut cumulative = Vec::with_capacity(TEMPLATES);
        let mut total = 0.0;
        for rank in 0..TEMPLATES {
            total += 1.0 / (rank + 1) as f64;
            cumulative.push(total);
        }
        let mut state: u64 = 0x243F_6A88_85A3_08D3;
        let queries = (0..num_subscriptions)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64 * total;
                let rank = cumulative.partition_point(|c| *c < u).min(TEMPLATES - 1);
                let (vector, algorithm) = &templates[rank];
                let query = KsirQuery::new(2 + 2 * (i % 4), vector.clone()).unwrap();
                (query, *algorithm)
            })
            .collect();
        MaintenanceScenario {
            stream,
            queries,
            window: WindowConfig::new(6 * 60, 15).unwrap(),
            scoring: ScoringConfig::new(0.5, 1.0).unwrap(),
        }
    }

    fn sized(scale: f64, num_subscriptions: usize) -> Self {
        let profile = DatasetProfile::twitter().scaled(scale).with_topics(50);
        let stream = StreamGenerator::new(profile, 4242)
            .unwrap()
            .generate()
            .unwrap();
        let num_topics = stream.planted.num_topics();
        let queries = (0..num_subscriptions)
            .map(|i| {
                let mut weights = vec![0.0; num_topics];
                weights[(3 * i) % num_topics] = 0.8;
                weights[(3 * i + 1) % num_topics] = 0.2;
                let query = KsirQuery::new(10, QueryVector::new(weights).unwrap()).unwrap();
                let algorithm = if i % 2 == 0 {
                    Algorithm::Mttd
                } else {
                    Algorithm::Mtts
                };
                (query, algorithm)
            })
            .collect();
        MaintenanceScenario {
            stream,
            queries,
            window: WindowConfig::new(6 * 60, 15).unwrap(),
            scoring: ScoringConfig::new(0.5, 1.0).unwrap(),
        }
    }

    /// A fresh, empty engine over the scenario's planted topic model.
    pub fn engine(&self) -> KsirEngine<DenseTopicWordTable> {
        KsirEngine::new(
            self.stream.planted.phi().clone(),
            EngineConfig::new(self.window, self.scoring),
        )
        .unwrap()
    }

    /// Replays the stream through a [`SubscriptionManager`] under `config`.
    pub fn run_managed(&self, config: ShardConfig) -> MaintenanceRun {
        let started = Instant::now();
        let mut mgr = SubscriptionManager::with_shard_config(self.engine(), config);
        for (query, algorithm) in &self.queries {
            mgr.subscribe(query.clone(), *algorithm).unwrap();
        }
        let outcomes = mgr.ingest_stream(self.stream.iter_pairs()).unwrap();
        std::hint::black_box(outcomes.len());
        MaintenanceRun {
            elapsed: started.elapsed(),
            stats: mgr.stats(),
            shard_stats: mgr.shard_stats(),
        }
    }

    /// Replays the stream through a [`SubscriptionManager`] with the
    /// clustered evaluation path toggled by `shared_plans`, and additionally
    /// reads the `refresh.gain_evaluations` telemetry counter — the
    /// deterministic scoring-pass total the `per_subscription` CI gate
    /// divides by the population.  Decisions must be identical either way
    /// (pinned by the `shared_plans` property tests and re-asserted by the
    /// gate); only the cost differs.
    pub fn run_shared_probe(&self, shared_plans: bool) -> SharedPlansRun {
        let started = Instant::now();
        let mut mgr = SubscriptionManager::with_shard_config(
            self.engine(),
            ShardConfig::default().with_shared_plans(shared_plans),
        );
        for (query, algorithm) in &self.queries {
            mgr.subscribe(query.clone(), *algorithm).unwrap();
        }
        let outcomes = mgr.ingest_stream(self.stream.iter_pairs()).unwrap();
        std::hint::black_box(outcomes.len());
        let gain_evaluations = mgr
            .telemetry()
            .registry()
            .counter("refresh.gain_evaluations")
            .get();
        SharedPlansRun {
            elapsed: started.elapsed(),
            stats: mgr.stats(),
            shard_stats: mgr.shard_stats(),
            gain_evaluations,
            subscriptions: self.queries.len(),
        }
    }

    /// Replays the stream through the **asynchronous** pipeline
    /// ([`SubscriptionManager::ingest_bucket_async`]): every subscription
    /// gets a bounded delivery queue, a dedicated consumer thread drains all
    /// of them spending `consumer_delay` of simulated work per delta, and
    /// each bucket's **ingest-return latency** — the time until
    /// `ingest_bucket_async` hands control back — is measured separately
    /// from the run's total wall time.
    ///
    /// The slow-subscriber mode (`consumer_delay > 0`) is the scenario the
    /// pipeline exists for: under the `DropOldest` overflow policy the
    /// consumer sheds its own backlog instead of back-pressuring the
    /// workers, so ingest-return latency must be independent of the delay —
    /// which is exactly what the CI perf gate checks.
    pub fn run_async(&self, config: ShardConfig, consumer_delay: Duration) -> AsyncMaintenanceRun {
        self.run_async_impl(config, consumer_delay, false)
    }

    /// [`MaintenanceScenario::run_async`] (fast consumer) with a live
    /// `ksir-obs` introspection server attached to the manager's telemetry
    /// and a scraper thread polling `GET /metrics` / `GET /metrics.json`
    /// (alternating, 100 Hz) over real TCP for the whole replay — the `obs`
    /// CI gate's measured side.  The scrape cadence is still three orders
    /// of magnitude hotter than any real Prometheus interval, so the gate
    /// bounds a worst case: rendering the registry must not contend with
    /// the ingest hot path.
    pub fn run_obs_probe(&self, config: ShardConfig) -> AsyncMaintenanceRun {
        self.run_async_impl(config, Duration::ZERO, true)
    }

    fn run_async_impl(
        &self,
        config: ShardConfig,
        consumer_delay: Duration,
        observed: bool,
    ) -> AsyncMaintenanceRun {
        let started = Instant::now();
        let mut mgr = SubscriptionManager::with_shard_config(self.engine(), config);
        let mut receivers = Vec::new();
        for (query, algorithm) in &self.queries {
            let id = mgr.subscribe(query.clone(), *algorithm).unwrap();
            let rx = mgr
                .attach_delivery(
                    id,
                    DeliveryConfig::default()
                        .with_capacity(64)
                        .with_policy(OverflowPolicy::DropOldest),
                )
                .expect("subscription just registered");
            receivers.push(rx);
        }

        // The consumer: drains every queue, charging `consumer_delay` per
        // delta; parks briefly on idle passes so it does not busy-steal CPU
        // from the refresh workers.
        let stop = Arc::new(AtomicBool::new(false));
        let consumer = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut delivered = 0u64;
                loop {
                    let mut drained_any = false;
                    for rx in &receivers {
                        while rx.try_recv().is_some() {
                            delivered += 1;
                            drained_any = true;
                            if !consumer_delay.is_zero() {
                                std::thread::sleep(consumer_delay);
                            }
                        }
                    }
                    if !drained_any {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
                (delivered, receivers)
            })
        };

        // The obs probe: server + scraper live for the whole timed replay.
        let obs = observed.then(|| {
            let server = ObsServer::spawn(Arc::clone(mgr.telemetry()), ObsConfig::default())
                .expect("bind obs server on an ephemeral port");
            let addr = server.local_addr();
            let stop = Arc::new(AtomicBool::new(false));
            let scraper = {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut scrapes = 0u64;
                    // 100 Hz, alternating the two renderings — three orders
                    // of magnitude hotter than a real Prometheus interval,
                    // but one render at a time: the gate bounds scrape
                    // *contention*, not a render-saturated core.
                    for round in 0u64.. {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let path = if round % 2 == 0 {
                            "/metrics"
                        } else {
                            "/metrics.json"
                        };
                        if http_scrape(addr, path).is_ok() {
                            scrapes += 1;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    scrapes
                })
            };
            (server, stop, scraper)
        });

        let mut ingest_return = Duration::ZERO;
        let mut max_ingest_return = Duration::ZERO;
        let bucket_len = self.window.bucket_len();
        let start_ts = mgr.engine().now();
        let loop_started = Instant::now();
        ksir_stream::for_each_bucket(
            bucket_len,
            start_ts,
            self.stream.iter_pairs(),
            |bucket, end| {
                let t0 = Instant::now();
                mgr.ingest_bucket_async(bucket, end)?.detach();
                let dt = t0.elapsed();
                ingest_return += dt;
                max_ingest_return = max_ingest_return.max(dt);
                Ok(())
            },
        )
        .unwrap();
        let ingest_span = loop_started.elapsed();
        mgr.sync();
        if let Some((server, obs_stop, scraper)) = obs {
            obs_stop.store(true, Ordering::Release);
            let scrapes = scraper.join().expect("scraper thread panicked");
            assert!(scrapes > 0, "obs probe never completed a scrape");
            server.shutdown();
        }
        stop.store(true, Ordering::Release);
        let (delivered, receivers) = consumer.join().expect("consumer thread panicked");
        let dropped = receivers.iter().map(|rx| rx.dropped()).sum();
        let engine_stats = mgr.engine().stats();
        let cow_clones = engine_stats.window_cow_clones
            + engine_stats.topic_vector_cow_clones
            + engine_stats.ranked_cow_clones;

        AsyncMaintenanceRun {
            ingest_return,
            max_ingest_return,
            ingest_span,
            elapsed: started.elapsed(),
            stats: mgr.stats(),
            shard_stats: mgr.shard_stats(),
            snapshots: mgr.snapshot_stats(),
            cow_clones,
            delivered,
            dropped,
        }
    }

    /// Replays the clean in-order stream through the ingest front ends the
    /// `reorder` CI gate compares: with `horizon == 0`, straight through
    /// [`SubscriptionManager::ingest_bucket_async`] (no reorder buffer —
    /// the baseline); with `horizon > 0`, through
    /// [`SubscriptionManager::ingest_bucket_reordered`] under that horizon,
    /// so every bucket is staged in the buffer before release.  On an
    /// in-order stream the buffer is pure overhead — it re-sequences
    /// nothing and sheds nothing (asserted by the gate via
    /// [`ManagerStats`]) — so the elapsed difference is exactly the cost of
    /// carrying the resilience front end on a healthy stream.
    pub fn run_reorder_probe(&self, horizon: usize) -> MaintenanceRun {
        let started = Instant::now();
        let config = ShardConfig::default().with_reorder_horizon(horizon);
        let mut mgr = SubscriptionManager::with_shard_config(self.engine(), config);
        for (query, algorithm) in &self.queries {
            mgr.subscribe(query.clone(), *algorithm).unwrap();
        }
        let bucket_len = self.window.bucket_len();
        let start_ts = mgr.engine().now();
        ksir_stream::for_each_bucket(
            bucket_len,
            start_ts,
            self.stream.iter_pairs(),
            |bucket, end| {
                if horizon > 0 {
                    for ticket in mgr.ingest_bucket_reordered(bucket, end)? {
                        ticket.detach();
                    }
                } else {
                    mgr.ingest_bucket_async(bucket, end)?.detach();
                }
                Ok(())
            },
        )
        .unwrap();
        for ticket in mgr.flush_reorder_buffer().unwrap() {
            ticket.detach();
        }
        mgr.sync();
        MaintenanceRun {
            elapsed: started.elapsed(),
            stats: mgr.stats(),
            shard_stats: mgr.shard_stats(),
        }
    }

    /// Replays the stream re-running every query after every bucket — the
    /// baseline with no delta rules.
    pub fn run_recompute(&self) -> MaintenanceRun {
        let started = Instant::now();
        let mut engine = self.engine();
        let bucket_len = engine.config().window.bucket_len();
        let mut slides = 0usize;
        let mut total_results = 0usize;
        ksir_stream::for_each_bucket(
            bucket_len,
            engine.now(),
            self.stream.iter_pairs(),
            |bucket, end| {
                engine.ingest_bucket(bucket, end)?;
                slides += 1;
                for (query, algorithm) in &self.queries {
                    total_results += engine.query(query, *algorithm)?.len();
                }
                Ok(())
            },
        )
        .unwrap();
        std::hint::black_box(total_results);
        MaintenanceRun {
            elapsed: started.elapsed(),
            stats: ManagerStats {
                slides,
                refreshes: slides * self.queries.len(),
                skips: 0,
                ..Default::default()
            },
            shard_stats: Vec::new(),
        }
    }
}

/// One blocking scrape over a fresh connection; returns the byte count so
/// the scraper can prove the body arrived.
fn http_scrape(addr: SocketAddr, path: &str) -> std::io::Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: obs\r\n\r\n")?;
    let mut body = String::new();
    stream.read_to_string(&mut body)?;
    Ok(body.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_strategies_agree_on_work_accounting() {
        let scenario = MaintenanceScenario::smoke();
        let recompute = scenario.run_recompute();
        let serial = scenario.run_managed(ShardConfig::unsharded());
        let sharded = scenario.run_managed(ShardConfig::default());
        assert_eq!(recompute.stats.slides, serial.stats.slides);
        assert_eq!(serial.stats, sharded.stats, "identical refresh decisions");
        assert_eq!(
            serial.stats.refreshes + serial.stats.skips,
            serial.stats.slides * scenario.queries.len()
        );
        assert!(recompute.skip_ratio() == 0.0);
        assert!(sharded.skip_ratio() >= 0.0);
        assert!(sharded.throughput() > 0.0);
        assert!(!sharded.shard_stats.is_empty());
        assert!(recompute.shard_stats.is_empty());
    }

    #[test]
    fn shared_probe_is_decision_identical_and_saves_scoring_passes() {
        let scenario = MaintenanceScenario::zipf_population(600);
        let clustered = scenario.run_shared_probe(true);
        let baseline = scenario.run_shared_probe(false);
        assert_eq!(
            clustered.stats, baseline.stats,
            "plan clustering must change no refresh decision"
        );
        assert_eq!(clustered.subscriptions, 600);
        assert_eq!(clustered.subscriptions, baseline.subscriptions);
        assert!(clustered.covering_evaluations() > 0);
        assert!(clustered.shared_refreshes() > 0, "templates must overlap");
        assert_eq!(baseline.covering_evaluations(), 0);
        assert_eq!(baseline.shared_refreshes(), 0);
        // The point of the clustered path: strictly fewer scoring passes
        // for identical decisions.  The full 5× margin is asserted by the
        // CI gate on the 100k population; at this size the overlap is
        // thinner, so pin a conservative 2×.
        assert!(
            clustered.passes_per_subscription() * 2.0 <= baseline.passes_per_subscription(),
            "clustered {} vs baseline {} passes/subscription",
            clustered.passes_per_subscription(),
            baseline.passes_per_subscription(),
        );
    }

    #[test]
    fn ratio_helpers_are_zero_not_nan_on_empty_runs() {
        // Regression pins: every ratio over a zero-decision run must be
        // exactly 0.0, never NaN (a NaN here poisons downstream JSON and
        // dashboard math silently).
        let empty = MaintenanceRun {
            elapsed: Duration::ZERO,
            stats: ManagerStats::default(),
            shard_stats: Vec::new(),
        };
        assert_eq!(empty.skip_ratio(), 0.0);
        assert_eq!(empty.throughput(), 0.0);
        let shared = SharedPlansRun {
            elapsed: Duration::ZERO,
            stats: ManagerStats::default(),
            shard_stats: Vec::new(),
            gain_evaluations: 0,
            subscriptions: 0,
        };
        assert_eq!(shared.passes_per_subscription(), 0.0);
        assert_eq!(shared.covering_evaluations(), 0);
    }

    #[test]
    fn async_run_makes_identical_decisions_and_accounts_for_every_delta() {
        let scenario = MaintenanceScenario::smoke();
        let serial = scenario.run_managed(ShardConfig::unsharded());
        let fast = scenario.run_async(ShardConfig::default(), Duration::ZERO);
        let slow = scenario.run_async(ShardConfig::default(), Duration::from_micros(500));
        let barrier = scenario.run_async(
            ShardConfig::default().with_pipeline_depth(1),
            Duration::ZERO,
        );
        assert_eq!(serial.stats, fast.stats, "async path changes no decision");
        assert_eq!(
            serial.stats, slow.stats,
            "slow consumer changes no decision"
        );
        assert_eq!(
            serial.stats, barrier.stats,
            "pipeline depth changes no decision"
        );
        assert!(fast.ingest_return <= fast.elapsed);
        assert!(fast.max_ingest_return <= fast.ingest_return);
        assert!(fast.ingest_return <= fast.ingest_span);
        assert!(fast.ingest_interval() > Duration::ZERO);
        assert!(fast.delivered > 0, "result changes must be delivered");
        // The pipelined runs evaluate on snapshots (scheduled epochs capture
        // one image each).
        assert!(fast.snapshots.epochs_captured > 0);
        assert!(fast.snapshots.shard_snapshots >= fast.snapshots.epochs_captured);
        // A fast consumer over ample time sheds little; either way every
        // delta is accounted for as delivered or dropped.
        assert!(fast.delivered + fast.dropped == slow.delivered + slow.dropped);
        assert!(!fast.shard_stats.is_empty());
    }

    #[test]
    fn obs_probe_scrapes_without_changing_decisions() {
        let scenario = MaintenanceScenario::smoke();
        let serial = scenario.run_managed(ShardConfig::unsharded());
        let observed = scenario.run_obs_probe(ShardConfig::default());
        assert_eq!(
            serial.stats, observed.stats,
            "a live scraper must not change any refresh decision"
        );
        assert!(observed.delivered > 0);
        assert!(observed.ingest_interval() > Duration::ZERO);
    }
}
