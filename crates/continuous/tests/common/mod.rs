//! Helpers the integration suites share: the planted-stream manager they
//! all build, and [`SerialWalk`], the per-subscription reference the
//! manager's sharded, clustered refresh is pinned against.

// Each suite uses a subset of these helpers.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ksir_continuous::{
    PipelineHooks, RefreshReason, ResultDelta, ShardConfig, ShardKey, SlideOutcome, SubscriptionId,
    SubscriptionManager, SubscriptionStats,
};
use ksir_core::stream::{WindowConfig, WindowDelta};
use ksir_core::{Algorithm, EngineConfig, KsirEngine, KsirQuery, QueryResult, ScoringConfig};
use ksir_datagen::{DatasetProfile, GeneratedStream, QueryWorkloadGenerator, StreamGenerator};
use ksir_types::{DenseTopicWordTable, QueryVector, SocialElement, TopicVector};

pub type Engine = KsirEngine<DenseTopicWordTable>;
pub type Manager = SubscriptionManager<DenseTopicWordTable>;
/// A registered subscription: its handle, query and algorithm.
pub type Sub = (SubscriptionId, KsirQuery, Algorithm);

/// Topics of the planted streams.
pub const TOPICS: usize = 12;

/// A small planted Twitter-shaped stream over [`TOPICS`] topics.
pub fn planted_stream(seed: u64) -> GeneratedStream {
    let profile = DatasetProfile::twitter().scaled(0.02).with_topics(TOPICS);
    StreamGenerator::new(profile, seed)
        .unwrap()
        .generate()
        .unwrap()
}

/// An empty engine over the stream's topic model.  The window is tight
/// enough that elements expire mid-stream, so the delta rules have real
/// skips to prove safe.
pub fn planted_engine(stream: &GeneratedStream) -> Engine {
    let window = WindowConfig::new(120, 15).unwrap();
    KsirEngine::new(
        stream.planted.phi().clone(),
        EngineConfig::new(window, ScoringConfig::default()),
    )
    .unwrap()
}

/// Half narrow 2-topic interests (the shape that makes skips possible),
/// half generator-drawn broad vectors (which exercise the overflow shard),
/// all at `k = 4`, cycling through four algorithms.
pub fn mixed_workload(stream: &GeneratedStream, seed: u64) -> Vec<(KsirQuery, Algorithm)> {
    let generated = QueryWorkloadGenerator::new(&stream.planted, seed ^ 0x5eed)
        .generate(4, stream.end_time())
        .unwrap();
    let algorithms = [
        Algorithm::Mtts,
        Algorithm::Mttd,
        Algorithm::TopkRepresentative,
        Algorithm::Celf,
    ];
    let mut subs = Vec::new();
    for (i, generated) in generated.into_iter().enumerate() {
        let mut narrow = vec![0.0; TOPICS];
        narrow[(3 * i) % TOPICS] = 0.8;
        narrow[(3 * i + 1) % TOPICS] = 0.2;
        for vector in [QueryVector::new(narrow).unwrap(), generated.vector] {
            let algorithm = algorithms[subs.len() % algorithms.len()];
            subs.push((KsirQuery::new(4, vector).unwrap(), algorithm));
        }
    }
    subs
}

/// A manager under `config` over an empty [`planted_engine`], with `subs`
/// registered in order: the same stream and `subs` give the same ids under
/// every configuration.
pub fn manager_over(
    stream: &GeneratedStream,
    config: ShardConfig,
    subs: &[(KsirQuery, Algorithm)],
) -> (Manager, Vec<Sub>) {
    let mut mgr = SubscriptionManager::with_shard_config(planted_engine(stream), config);
    let subs = subs
        .iter()
        .map(|(query, algorithm)| {
            let id = mgr.subscribe(query.clone(), *algorithm).unwrap();
            (id, query.clone(), *algorithm)
        })
        .collect();
    (mgr, subs)
}

/// [`manager_over`] the seed's planted stream and [`mixed_workload`].
pub fn planted_manager(seed: u64, config: ShardConfig) -> (Manager, Vec<Sub>, GeneratedStream) {
    let stream = planted_stream(seed);
    let (mgr, subs) = manager_over(&stream, config, &mixed_workload(&stream, seed));
    (mgr, subs, stream)
}

/// One registered query as the walk tracks it.
struct Walked {
    query: KsirQuery,
    algorithm: Algorithm,
    result: Option<QueryResult>,
    stats: SubscriptionStats,
}

/// What the walk decided on one slide.
#[derive(Debug, Default)]
pub struct WalkSlide {
    pub refreshed: usize,
    pub skipped: usize,
    /// The subscriptions refreshed, in id order.
    pub refreshed_ids: Vec<SubscriptionId>,
    /// Result changes, in subscription-id order.
    pub updates: Vec<ResultDelta>,
}

/// The per-subscription reference walk, written against public API only.
///
/// After every slide each subscription is classified on its own: it
/// refreshes when it has no result, a stored member left the window
/// ([`WindowDelta::lost`]), or a support topic was touched at or above its
/// frontier ([`QueryFrontier::disturbed_by`](ksir_core::QueryFrontier::disturbed_by);
/// any touch, [`RankedDelta::touched`](ksir_core::stream::RankedDelta::touched),
/// without one).  A refresh is a plain [`KsirEngine::query`], diffed against
/// the stored result with the manager's `1e-12` score tolerance.  No shards,
/// no clusters, no snapshots, no workers.
#[derive(Default)]
pub struct SerialWalk {
    subs: BTreeMap<SubscriptionId, Walked>,
    /// Slide-driven refreshes and skips, over every subscription that ever
    /// lived (the counterpart of `ManagerStats`).
    pub refreshes: usize,
    pub skips: usize,
    /// Scoring passes of the slide-driven queries the walk ran.
    pub gain_evaluations: usize,
}

impl SerialWalk {
    /// A walk over `subs`, each evaluated against `engine` as `subscribe`
    /// evaluates it.
    pub fn over(subs: &[Sub], engine: &Engine) -> Self {
        let mut walk = SerialWalk::default();
        for (id, query, algorithm) in subs {
            walk.subscribe(*id, query, *algorithm, engine);
        }
        walk
    }

    /// Registers `id` with its initial evaluation (not a slide: uncounted).
    pub fn subscribe(
        &mut self,
        id: SubscriptionId,
        query: &KsirQuery,
        algorithm: Algorithm,
        engine: &Engine,
    ) {
        let mut walked = Walked {
            query: query.clone(),
            algorithm,
            result: None,
            stats: SubscriptionStats::default(),
        };
        let fresh = engine.query(query, algorithm).unwrap();
        apply(id, &mut walked, RefreshReason::Initial, fresh);
        self.subs.insert(id, walked);
    }

    pub fn unsubscribe(&mut self, id: SubscriptionId) {
        self.subs.remove(&id).expect("walked subscription");
    }

    /// The forced refresh: re-runs `id`'s query, uncounted.
    pub fn refresh(&mut self, id: SubscriptionId, engine: &Engine) -> Option<ResultDelta> {
        let walked = self.subs.get_mut(&id).expect("walked subscription");
        let fresh = engine.query(&walked.query, walked.algorithm).unwrap();
        apply(id, walked, RefreshReason::Forced, fresh)
    }

    /// Classifies every subscription against one slide's `delta` and
    /// refreshes the disturbed ones against `engine`, the state after it.
    pub fn slide(&mut self, delta: &WindowDelta, engine: &Engine) -> WalkSlide {
        let mut slide = WalkSlide::default();
        for (&id, walked) in &mut self.subs {
            let Some(reason) = classify(walked, delta) else {
                walked.stats.skips += 1;
                slide.skipped += 1;
                continue;
            };
            walked.stats.refreshes += 1;
            slide.refreshed += 1;
            slide.refreshed_ids.push(id);
            let fresh = engine.query(&walked.query, walked.algorithm).unwrap();
            self.gain_evaluations += fresh.gain_evaluations;
            slide.updates.extend(apply(id, walked, reason, fresh));
        }
        self.refreshes += slide.refreshed;
        self.skips += slide.skipped;
        slide
    }

    pub fn result(&self, id: SubscriptionId) -> &QueryResult {
        self.subs[&id]
            .result
            .as_ref()
            .expect("evaluated at subscribe")
    }

    /// Asserts the manager's per-subscription counters and maintained
    /// results equal the walk's, for every subscription the walk tracks.
    pub fn assert_matches(&self, mgr: &Manager, context: &str) {
        for (id, walked) in &self.subs {
            assert_eq!(
                mgr.subscription_stats(*id),
                Some(walked.stats),
                "{context}: {id} work counters diverged from the walk"
            );
            let (ours, theirs) = (mgr.result(*id).unwrap(), self.result(*id));
            assert_eq!(ours.elements, theirs.elements, "{context}: {id}");
            assert_eq!(
                ours.score.to_bits(),
                theirs.score.to_bits(),
                "{context}: {id}"
            );
        }
        let stats = mgr.stats();
        assert_eq!(
            (stats.refreshes, stats.skips),
            (self.refreshes, self.skips),
            "{context}: aggregate decisions diverged from the walk"
        );
    }
}

/// The delta-refresh rules, restated.
fn classify(walked: &Walked, delta: &WindowDelta) -> Option<RefreshReason> {
    let Some(result) = &walked.result else {
        return Some(RefreshReason::Initial);
    };
    if result.elements.iter().any(|&id| delta.lost(id)) {
        return Some(RefreshReason::MemberExpired);
    }
    let disturbed = match &result.frontier {
        Some(frontier) => frontier.disturbed_by(&delta.ranked),
        None => walked
            .query
            .vector()
            .support()
            .iter()
            .any(|&(topic, _)| delta.ranked.touched(topic)),
    };
    disturbed.then_some(RefreshReason::TopicDisturbed)
}

/// Stores `fresh` and returns the delta when members or score changed.
fn apply(
    id: SubscriptionId,
    walked: &mut Walked,
    reason: RefreshReason,
    fresh: QueryResult,
) -> Option<ResultDelta> {
    let old = walked.result.as_ref();
    let old_elements = old.map_or(&[][..], |old| &old.elements[..]);
    let score_before = old.map_or(0.0, |old| old.score);
    let added: Vec<_> = (fresh.elements.iter().copied())
        .filter(|e| !old_elements.contains(e))
        .collect();
    let mut removed: Vec<_> = (old_elements.iter().copied())
        .filter(|e| !fresh.elements.contains(e))
        .collect();
    removed.sort_unstable();
    let score_after = fresh.score;
    walked.result = Some(fresh);
    if added.is_empty() && removed.is_empty() && (score_after - score_before).abs() <= 1e-12 {
        return None;
    }
    walked.stats.result_changes += 1;
    Some(ResultDelta {
        subscription: id,
        reason,
        added,
        removed,
        score_before,
        score_after,
    })
}

/// Asserts a manager slide made the walk's decisions: the same refresh and
/// skip counts and the same updates.
pub fn assert_same_slide(
    context: &str,
    refreshed: usize,
    skipped: usize,
    updates: &[ResultDelta],
    walk: &WalkSlide,
) {
    assert_eq!(refreshed, walk.refreshed, "{context}: refresh decisions");
    assert_eq!(skipped, walk.skipped, "{context}: skip decisions");
    assert_same_updates(context, updates, &walk.updates);
}

/// Asserts two id-ordered update lists agree: subscription, reason,
/// members and score bits.
pub fn assert_same_updates(context: &str, ours: &[ResultDelta], theirs: &[ResultDelta]) {
    assert_eq!(ours.len(), theirs.len(), "{context}: result changes");
    for (ours, theirs) in ours.iter().zip(theirs) {
        let id = ours.subscription;
        assert_eq!(id, theirs.subscription, "{context}");
        assert_eq!(ours.reason, theirs.reason, "{context}: {id}");
        assert_eq!(ours.added, theirs.added, "{context}: {id}");
        assert_eq!(ours.removed, theirs.removed, "{context}: {id}");
        for (a, b) in [
            (ours.score_before, theirs.score_before),
            (ours.score_after, theirs.score_after),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{context}: {id} score {a} vs {b}");
        }
    }
}

/// Feeds `pairs` through [`SubscriptionManager::ingest_bucket`], stepping
/// `walk` on each slide's reported delta and the manager's engine, and
/// asserts every slide against it.
pub fn ingest_against_walk(
    mgr: &mut Manager,
    walk: &mut SerialWalk,
    pairs: impl IntoIterator<Item = (SocialElement, TopicVector)>,
) -> Vec<SlideOutcome> {
    let (bucket_len, now) = {
        let engine = mgr.engine();
        (engine.config().window.bucket_len(), engine.now())
    };
    let mut outcomes = Vec::new();
    ksir_core::stream::for_each_bucket(bucket_len, now, pairs, |bucket, end| {
        let outcome = mgr.ingest_bucket(bucket, end)?;
        let slide = walk.slide(&outcome.report.delta, &mgr.engine());
        let context = format!("slide {}", outcomes.len() + 1);
        assert_same_slide(
            &context,
            outcome.refreshed,
            outcome.skipped,
            &outcome.updates,
            &slide,
        );
        outcomes.push(outcome);
        Ok(())
    })
    .unwrap();
    outcomes
}

/// The walk over `subs` on a bare [`planted_engine`] replaying the whole
/// stream: the reference for pipelined runs, whose slides are not observed
/// one at a time.  Returns the walk and its decisions, slide by slide.
pub fn walk_stream(stream: &GeneratedStream, subs: &[Sub]) -> (SerialWalk, Vec<WalkSlide>) {
    let mut engine = planted_engine(stream);
    let mut walk = SerialWalk::over(subs, &engine);
    let mut slides = Vec::new();
    let (bucket_len, now) = (engine.config().window.bucket_len(), engine.now());
    ksir_core::stream::for_each_bucket(bucket_len, now, stream.iter_pairs(), |bucket, end| {
        let report = engine.ingest_bucket(bucket, end)?;
        slides.push(walk.slide(&report.delta, &engine));
        Ok(())
    })
    .unwrap();
    (walk, slides)
}

/// Parks the pool worker inside `after_work_item` once it has finished its
/// `target`-th work item — every lane it drained is released by then, so
/// its epochs are complete — until [`ParkWorker::release`].  Every other
/// seam is forwarded to `inner`, if any.
#[derive(Debug)]
pub struct ParkWorker {
    target: usize,
    inner: Option<Arc<dyn PipelineHooks>>,
    items: AtomicUsize,
    /// `(parked, released)`.
    state: Mutex<(bool, bool)>,
    changed: Condvar,
}

impl ParkWorker {
    pub fn new(target: usize, inner: Option<Arc<dyn PipelineHooks>>) -> Self {
        ParkWorker {
            target,
            inner,
            items: AtomicUsize::new(0),
            state: Mutex::default(),
            changed: Condvar::new(),
        }
    }

    /// Blocks until the worker is parked (at most 30 s).
    pub fn wait_parked(&self) {
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut state = self.state.lock().unwrap();
        while !state.0 {
            let left = deadline
                .checked_duration_since(Instant::now())
                .expect("the worker never finished its items");
            state = self.changed.wait_timeout(state, left).unwrap().0;
        }
    }

    /// Lets the parked worker go.
    pub fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl PipelineHooks for ParkWorker {
    fn before_cluster_query(&self, epoch: u64, shard: ShardKey, query: usize) {
        if let Some(inner) = &self.inner {
            inner.before_cluster_query(epoch, shard, query);
        }
    }

    fn before_delivery(&self, epoch: u64, subscription: SubscriptionId) {
        if let Some(inner) = &self.inner {
            inner.before_delivery(epoch, subscription);
        }
    }

    fn after_work_item(&self, _shard: ShardKey, _epochs: RangeInclusive<u64>) {
        if self.items.fetch_add(1, Ordering::SeqCst) + 1 != self.target {
            return;
        }
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        self.changed.notify_all();
        while !state.1 {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn before_snapshot(&self, epoch: u64) {
        if let Some(inner) = &self.inner {
            inner.before_snapshot(epoch);
        }
    }
}

/// Runs `work` on a thread of its own and returns its value, failing the
/// test after 10 s instead of hanging on a barrier that never completes.
pub fn within_10s<T: Send + 'static>(what: &str, work: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(work());
    });
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(value) => value,
        Err(RecvTimeoutError::Timeout) => panic!("{what} did not return within 10 s"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what} panicked"),
    }
}
