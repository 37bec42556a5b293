//! One repeat: a fresh engine and manager, set-up (subscribe, attach,
//! warm-up), then the measured section with its checkpoints and checks.
//! Every layer is timed from outside, around calls into the facade.

use std::hint::black_box;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ksir::continuous::{DeliveryConfig, DeliveryReceiver, MetricsRegistry, SubscriptionId};
use ksir::obs::{ObsConfig, ObsServer};
use ksir::types::DenseTopicWordTable;
use ksir::{
    Algorithm, EngineConfig, KsirEngine, KsirError, KsirQuery, QueryResult, ScoringConfig,
    ShardConfig, SubscriptionManager, WindowConfig,
};

use crate::inputs::{Bucket, Inputs, CHECKPOINTS, PROBE_EPSILON};
use crate::spans::{SpanId, Spans, NO_SPAN};
use crate::stats::ratio;
use crate::workloads::{Path, Workload};

pub type Phi = Arc<DenseTopicWordTable>;
pub type Engine = KsirEngine<Phi>;
pub type Manager = SubscriptionManager<Phi>;

/// Positions in [`Repeat::query_us`].
pub const MTTS: usize = 0;
pub const MTTD: usize = 1;
pub const CELF: usize = 2;
pub const SIEVE: usize = 3;
pub const TOPK: usize = 4;
const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Mtts,
    Algorithm::Mttd,
    Algorithm::Celf,
    Algorithm::SieveStreaming,
    Algorithm::TopkRepresentative,
];
const SPAN_NAMES: [&str; 5] = [
    "core.query.mtts",
    "core.query.mttd",
    "core.query.celf",
    "core.query.sieve",
    "core.query.topk",
];

const COUNTERS: [&str; 12] = [
    "shard.refreshes",
    "shard.skips",
    "refresh.gain_evaluations",
    "refresh.mode.full",
    "refresh.mode.delta",
    "refresh.cluster.covering",
    "refresh.cluster.shared",
    "snapshot.epochs_captured",
    "snapshot.shard_snapshots",
    "snapshot.entries_copied",
    "delivery.enqueued",
    "delivery.dropped",
];
const HISTOGRAMS: [&str; 7] = [
    "ingest.index_write",
    "ingest.project",
    "ingest.admission_wait",
    "snapshot.capture",
    "refresh.shard",
    "worker.item",
    "delivery.e2e",
];

/// The program's own counters and stage histograms, read through
/// `mgr.telemetry().registry()`.  The registry creates a name on first use,
/// so one the program stops publishing reads as zero and fails nothing.
#[derive(Debug, Clone, Default)]
pub struct RegistrySample {
    counters: Vec<u64>,
    /// `(samples, total seconds)` per histogram.
    histograms: Vec<(u64, f64)>,
}

impl RegistrySample {
    fn take(registry: &MetricsRegistry) -> Self {
        RegistrySample {
            counters: COUNTERS.iter().map(|n| registry.counter(n).get()).collect(),
            histograms: HISTOGRAMS
                .iter()
                .map(|n| {
                    let h = registry.histogram(n);
                    (h.count(), h.sum().as_secs_f64())
                })
                .collect(),
        }
    }

    fn since(&self, earlier: &RegistrySample) -> Self {
        RegistrySample {
            counters: self
                .counters
                .iter()
                .zip(&earlier.counters)
                .map(|(now, then)| now - then)
                .collect(),
            histograms: self
                .histograms
                .iter()
                .zip(&earlier.histograms)
                .map(|(now, then)| (now.0 - then.0, now.1 - then.1))
                .collect(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let at = COUNTERS.iter().position(|n| *n == name);
        at.map_or(0.0, |i| self.counters[i] as f64)
    }

    fn histogram(&self, name: &str) -> (u64, f64) {
        let at = HISTOGRAMS.iter().position(|n| *n == name);
        at.map_or((0, 0.0), |i| self.histograms[i])
    }

    /// Total seconds recorded under `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.histogram(name).1
    }

    /// Mean sample of `name`, in seconds.
    pub fn mean_seconds(&self, name: &str) -> f64 {
        let (samples, seconds) = self.histogram(name);
        ratio(seconds, samples as f64)
    }
}

/// Counts that must come out identical in every repeat of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub slides: usize,
    pub refreshes: usize,
    pub skips: usize,
    pub deliveries: u64,
    pub gain_evaluations: u64,
    /// FNV-1a over every MTTS/MTTD probe result (members and score bits).
    pub probe_checksum: u64,
    /// Bit patterns of the two score-ratio sums.
    pub ratio_bits: [u64; 2],
}

/// Everything one repeat measured.
#[derive(Debug, Default)]
pub struct Repeat {
    pub traced: bool,
    /// Construct + subscribe + attach + warm-up.
    pub setup_s: f64,
    /// The throughput denominator, one entry per checkpoint segment: ingest
    /// calls + drains of its closed-loop slides (all of them on the sync
    /// path, the flat-out half on the async path) and the barrier ending it.
    /// A barrier settles all outstanding work, so a segment's total does not
    /// depend on how the async path spread that work over its slides.
    pub ingest_parts_s: Vec<f64>,
    pub ingest_elements: usize,
    /// Raw ingest-call time over *all* measured slides.
    pub call_s: f64,
    pub measured_s: f64,
    pub probe_s: f64,
    pub slide_ms: Vec<f64>,
    /// Mean ingest-to-dequeue latency of each slide that delivered anything,
    /// in slide order.  A slide's deliveries leave the worker in per-shard
    /// bursts, so a quantile over single deliveries hops between bursts;
    /// the slide mean moves smoothly with the work done.
    pub delivery_ms: Vec<f64>,
    /// Every single delivery, for the tail.
    pub each_delivery_ms: Vec<f64>,
    pub late_us: Vec<f64>,
    pub query_us: [Vec<f64>; 5],
    pub k5_us: [Vec<f64>; 2],
    pub k25_us: [Vec<f64>; 2],
    /// Σ evaluated elements ÷ active elements, per MTTS/MTTD probe.
    pub evaluated_ratio: [f64; 2],
    pub ratio_sum: [f64; 2],
    pub ratio_n: usize,
    pub counts: Counts,
    pub registry: RegistrySample,
    /// The registry over the slides `slide_ms` and `delivery_ms` count: the
    /// whole measured section on the sync path, its paced half on the async
    /// path.
    pub counted_registry: RegistrySample,
    pub cow_clones: usize,
    pub backlog_max: usize,
    pub render_prometheus_us: f64,
    pub scrape_metrics_us: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Repeat {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn elements_per_s(&self) -> f64 {
        ratio(
            self.ingest_elements as f64,
            self.ingest_parts_s.iter().sum(),
        )
    }
}

pub fn new_engine(inp: &Inputs, workload: &Workload) -> Result<Engine, KsirError> {
    let window = WindowConfig::new(workload.window, workload.bucket)?;
    // η = 2 keeps the influence term on the semantic term's scale at this
    // stream size (the paper picks η per dataset for the same reason).
    let scoring = ScoringConfig::new(0.5, 2.0)?;
    KsirEngine::new(Arc::clone(&inp.phi), EngineConfig::new(window, scoring))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn fnv(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Replay<'a> {
    inp: &'a Inputs,
    workload: &'a Workload,
    mgr: Manager,
    ids: Vec<SubscriptionId>,
    receivers: Vec<DeliveryReceiver>,
    spans: &'a mut Spans,
    run_span: SpanId,
    /// Start (or due) time of every slide's ingest call by slide number, and
    /// whether its deliveries count towards `delivery_ms`.
    slide_started: Vec<(Instant, bool)>,
    /// `(slide, latency in ms)` of every counted delivery.
    delivered: Vec<(u64, f64)>,
    /// Throughput time of the checkpoint segment in progress.
    segment_s: f64,
    out: Repeat,
}

/// Times one ad-hoc query; an `Err` is a failed operation.
fn timed_query(
    engine: &Engine,
    query: &KsirQuery,
    algorithm: usize,
    out: &mut Repeat,
    spans: &mut Spans,
    parent: SpanId,
) -> Option<QueryResult> {
    out.attempted += 1;
    let span = spans.open(SPAN_NAMES[algorithm], parent, 0);
    let started = Instant::now();
    let result = engine.query(black_box(query), ALGORITHMS[algorithm]);
    out.query_us[algorithm].push(us(started.elapsed()));
    spans.close(span);
    match result {
        Ok(r) => Some(black_box(r)),
        Err(e) => {
            out.fail(format!("{} query: {e}", ALGORITHMS[algorithm]));
            None
        }
    }
}

/// A fresh engine and manager with the panel subscribed and a delivery queue
/// attached to every subscription.
fn fresh_manager(
    inp: &Inputs,
    workload: &Workload,
) -> Result<(Manager, Vec<SubscriptionId>, Vec<DeliveryReceiver>), KsirError> {
    // Shipping defaults except the thread count: driver + one pool worker is
    // what a 2-core host has.
    let config = ShardConfig::default().with_threads(Some(1));
    let mut mgr = SubscriptionManager::with_shard_config(new_engine(inp, workload)?, config);
    let mut ids = Vec::with_capacity(inp.panel.len());
    let mut receivers = Vec::with_capacity(inp.panel.len());
    for (query, algorithm) in &inp.panel {
        let id = mgr.subscribe(query.clone(), *algorithm)?;
        receivers.push(
            mgr.attach_delivery(id, DeliveryConfig::default())
                .expect("the subscription was registered on the line above"),
        );
        ids.push(id);
    }
    Ok((mgr, ids, receivers))
}

impl Replay<'_> {
    /// Drains every receiver, stamping each delivery with its dequeue time.
    fn sweep(&mut self) {
        for rx in &self.receivers {
            let batch = rx.drain();
            if batch.is_empty() {
                continue;
            }
            let now = Instant::now();
            for delivery in batch {
                self.out.counts.deliveries += 1;
                let (started, counted) = self.slide_started[delivery.slide as usize];
                if counted {
                    self.delivered
                        .push((delivery.slide, ms(now.saturating_duration_since(started))));
                }
            }
        }
    }

    /// One ingest call through the workload's path; returns its duration.
    fn ingest(&mut self, bucket: &Bucket, parent: SpanId, slide: u64) -> Duration {
        let items = bucket.items.clone();
        let started = Instant::now();
        let failure = match self.workload.path {
            Path::Sync => {
                let span = self.spans.open("continuous.ingest_bucket", parent, slide);
                let outcome = self.mgr.ingest_bucket(items, bucket.end);
                self.spans.close(span);
                outcome.map(black_box).err()
            }
            Path::Async { .. } => {
                let span = self
                    .spans
                    .open("continuous.ingest_bucket_async", parent, slide);
                let ticket = self.mgr.ingest_bucket_async(items, bucket.end);
                self.spans.close(span);
                ticket.map(|t| black_box(t).detach()).err()
            }
        };
        let elapsed = started.elapsed();
        if let Some(e) = failure {
            self.out.fail(format!("ingest of slide {slide}: {e}"));
        }
        elapsed
    }

    /// `sync()`, probe batch, CELF reference and the oracle, after slide
    /// `slide` of the measured section.
    fn checkpoint(&mut self, c: usize, slide: u64, in_throughput: bool) {
        let cp = self.spans.open("checkpoint", self.run_span, slide);
        let started = Instant::now();
        let span = self.spans.open("continuous.sync", cp, slide);
        self.mgr.sync();
        self.spans.close(span);
        self.sweep();
        if in_throughput {
            self.segment_s += started.elapsed().as_secs_f64();
            self.out
                .ingest_parts_s
                .push(std::mem::take(&mut self.segment_s));
        }

        let per = self.workload.probes_per_checkpoint;
        let probes = &self.inp.probes[c * per..(c + 1) * per];
        let engine = self.mgr.engine();
        let active = engine.active_count().max(1) as f64;
        let (out, spans) = (&mut self.out, &mut *self.spans);
        let probe_started = Instant::now();
        for (j, query) in probes.iter().enumerate() {
            let mut scores = [0.0; 2];
            for algorithm in [MTTS, MTTD] {
                let result = timed_query(&engine, query, algorithm, out, spans, cp);
                let Some(result) = result else { continue };
                scores[algorithm] = result.score;
                out.evaluated_ratio[algorithm] += result.evaluated_elements as f64 / active;
                let mut h = out.counts.probe_checksum;
                for id in &result.elements {
                    h = fnv(h, id.raw());
                }
                out.counts.probe_checksum = fnv(h, result.score.to_bits());
                if result.len() > query.k()
                    || !result.elements.iter().all(|id| engine.is_active(*id))
                {
                    out.fail(format!(
                        "probe {j} at checkpoint {c}: oversized or inactive result"
                    ));
                }
            }
            if j >= self.workload.celf_per_checkpoint {
                continue;
            }
            // The quality reference; the other baselines only when traced.
            let baselines: &[usize] = if out.traced {
                &[CELF, SIEVE, TOPK]
            } else {
                &[CELF]
            };
            for &algorithm in baselines {
                let result = timed_query(&engine, query, algorithm, out, spans, cp);
                if let (CELF, Some(reference)) = (algorithm, result) {
                    if reference.score > 0.0 {
                        out.ratio_sum[MTTS] += scores[MTTS] / reference.score;
                        out.ratio_sum[MTTD] += scores[MTTD] / reference.score;
                        out.ratio_n += 1;
                    }
                }
            }
        }
        if out.traced && c + 1 == CHECKPOINTS {
            // Latency against k, on the final window only.
            for query in probes.iter().take(32) {
                for (k, sinks) in [(5, &mut out.k5_us), (25, &mut out.k25_us)] {
                    let sized = KsirQuery::new(k, query.vector().clone())
                        .and_then(|q| q.with_epsilon(PROBE_EPSILON))
                        .expect("k and epsilon are valid constants");
                    for algorithm in [MTTS, MTTD] {
                        let started = Instant::now();
                        black_box(engine.query(&sized, ALGORITHMS[algorithm]).ok());
                        sinks[algorithm].push(us(started.elapsed()));
                    }
                }
            }
        }
        out.probe_s += probe_started.elapsed().as_secs_f64();

        // The oracle: a maintained result must equal a from-scratch query.
        let span = spans.open("oracle.check", cp, slide);
        for &at in &self.inp.oracle_sample[c] {
            out.attempted += 1;
            let (query, algorithm) = &self.inp.panel[at];
            let maintained = self.mgr.result(self.ids[at]);
            let fresh = engine.query(query, *algorithm);
            let agree = match (&maintained, &fresh) {
                (Some(m), Ok(f)) => {
                    m.sorted_elements() == f.sorted_elements()
                        && (m.score - f.score).abs() <= 1e-9
                        && m.len() <= query.k()
                        && m.elements.iter().all(|id| engine.is_active(*id))
                }
                _ => false,
            };
            if !agree {
                out.fail(format!(
                    "oracle: subscription {at} at checkpoint {c}: maintained {:?} vs fresh {:?}",
                    maintained.map(|m| (m.sorted_elements(), m.score)),
                    fresh.map(|f| (f.sorted_elements(), f.score)),
                ));
            }
        }
        spans.close(span);
        drop(engine);
        self.spans.close(cp);
    }

    fn measured_section(&mut self, before: &RegistrySample) {
        let inp = self.inp;
        let measured = inp.measured();
        let n = measured.len();
        let pace = match self.workload.path {
            Path::Sync => None,
            Path::Async { pace_us } => Some(Duration::from_micros(pace_us)),
        };
        // Slides whose call and deliveries are timed for the latency metrics.
        let counted_slides = if pace.is_some() { n / 2 } else { n };
        let mut next_due: Option<Instant> = None;
        let mut late_slides = 0usize;
        let section_started = Instant::now();

        for (i, bucket) in measured.iter().enumerate() {
            let slide = (inp.warmup + i + 1) as u64;
            let counted = i < counted_slides;
            let paced = counted && pace.is_some();
            let slide_span = self.spans.open("slide", self.run_span, slide);
            // An open-loop slide is timed from when it was due, whatever the
            // generator or the previous slide did to its actual start.
            let started = match pace {
                Some(interval) if paced => {
                    let due = next_due.unwrap_or_else(Instant::now);
                    loop {
                        self.sweep();
                        let now = Instant::now();
                        if now >= due {
                            let late = now - due;
                            self.out.late_us.push(us(late));
                            late_slides += usize::from(late > interval);
                            break;
                        }
                        // Poll gently, then spin the last stretch so the call
                        // starts on time.  A consumer that sweeps every queue
                        // mutex without pause contends with the worker pushing
                        // into them and slows the refreshes it is timing.
                        if due - now > Duration::from_micros(400) {
                            std::thread::sleep(Duration::from_micros(250));
                        }
                    }
                    next_due = Some(due + interval);
                    due
                }
                _ => Instant::now(),
            };
            self.slide_started.push((started, counted));
            self.out.attempted += 1;
            let call = self.ingest(bucket, slide_span, slide);
            let returned = Instant::now();
            self.out.call_s += call.as_secs_f64();
            if counted {
                self.out.slide_ms.push(ms(returned - started));
            }
            self.out.backlog_max = self.out.backlog_max.max(self.mgr.inflight_epochs());
            let drain = self.spans.open("delivery.drain", slide_span, slide);
            self.sweep();
            self.spans.close(drain);
            if !paced {
                self.segment_s += started.elapsed().as_secs_f64();
                self.out.ingest_elements += bucket.items.len();
            }
            self.spans.close(slide_span);

            if i + 1 == counted_slides {
                if paced {
                    // Let the paced half finish before the flat-out clock
                    // starts.
                    self.mgr.sync();
                    self.sweep();
                }
                let registry = self.mgr.telemetry().registry();
                self.out.counted_registry = RegistrySample::take(registry).since(before);
            }
            let checkpoints_due = (i + 1) * CHECKPOINTS / n;
            if checkpoints_due > i * CHECKPOINTS / n {
                self.checkpoint(checkpoints_due - 1, slide, !paced);
                next_due = None;
            }
        }
        self.out.measured_s = section_started.elapsed().as_secs_f64();
        self.delivered.sort_by_key(|d| d.0);
        for of_slide in self.delivered.chunk_by(|a, b| a.0 == b.0) {
            let total: f64 = of_slide.iter().map(|d| d.1).sum();
            self.out.delivery_ms.push(total / of_slide.len() as f64);
        }
        self.out.each_delivery_ms = self.delivered.iter().map(|d| d.1).collect();
        // A rate the program cannot hold shows as a generator that keeps
        // falling behind; a single hiccup only shows in the latencies.
        if late_slides * 10 > counted_slides {
            self.out.fail(format!(
                "{late_slides} of {counted_slides} paced slides started more than one interval late"
            ));
        }
    }

    /// Renders the metric surface the way an operator would read it.
    fn observe(&mut self) {
        let telemetry = Arc::clone(self.mgr.telemetry());
        let started = Instant::now();
        black_box(telemetry.render_prometheus());
        self.out.render_prometheus_us = us(started.elapsed());
        // One scrape over loopback; a host without sockets reports zero.
        let Ok(server) = ObsServer::spawn(telemetry, ObsConfig::default()) else {
            return;
        };
        let started = Instant::now();
        let scraped = TcpStream::connect(server.local_addr()).and_then(|mut stream| {
            stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")?;
            let mut body = Vec::new();
            stream.read_to_end(&mut body)
        });
        if matches!(scraped, Ok(bytes) if bytes > 0) {
            self.out.scrape_metrics_us = us(started.elapsed());
        }
        server.shutdown();
    }
}

/// Runs one repeat of `workload` over `inp`.
pub fn run_repeat(inp: &Inputs, workload: &Workload, traced: bool, spans: &mut Spans) -> Repeat {
    spans.set_on(traced);
    let run_span = spans.open("run", NO_SPAN, 0);
    let setup_span = spans.open("setup", run_span, 0);
    let setup_started = Instant::now();
    let subscribe_span = spans.open("continuous.subscribe", setup_span, 0);
    let (mgr, ids, receivers) = match fresh_manager(inp, workload) {
        Ok(parts) => parts,
        Err(e) => {
            return Repeat {
                attempted: 1,
                failed: 1,
                failures: vec![format!("set-up: {e}")],
                ..Repeat::default()
            }
        }
    };
    spans.close(subscribe_span);
    let mut replay = Replay {
        inp,
        workload,
        mgr,
        ids,
        receivers,
        spans,
        run_span,
        // Slide numbers are 1-based.
        slide_started: vec![(setup_started, false)],
        delivered: Vec::new(),
        segment_s: 0.0,
        out: Repeat {
            traced,
            ..Repeat::default()
        },
    };

    let warmup_span = replay.spans.open("warmup", setup_span, 0);
    for (i, bucket) in inp.buckets[..inp.warmup].iter().enumerate() {
        replay.slide_started.push((Instant::now(), false));
        replay.ingest(bucket, warmup_span, i as u64 + 1);
        replay.sweep();
    }
    replay.mgr.sync();
    replay.sweep();
    replay.spans.close(warmup_span);
    replay.spans.close(setup_span);
    replay.out.setup_s = setup_started.elapsed().as_secs_f64();
    replay.out.counts.deliveries = 0;

    let registry_before = RegistrySample::take(replay.mgr.telemetry().registry());
    let stats_before = replay.mgr.stats();
    let cow = |m: &Manager| {
        let s = m.engine().stats();
        s.window_cow_clones + s.topic_vector_cow_clones + s.ranked_cow_clones
    };
    let cow_before = cow(&replay.mgr);

    replay.measured_section(&registry_before);

    let stats = replay.mgr.stats();
    let registry = RegistrySample::take(replay.mgr.telemetry().registry()).since(&registry_before);
    let out = &mut replay.out;
    out.counts.slides = stats.slides - stats_before.slides;
    out.counts.refreshes = stats.refreshes - stats_before.refreshes;
    out.counts.skips = stats.skips - stats_before.skips;
    out.counts.gain_evaluations = registry.counter("refresh.gain_evaluations") as u64;
    out.counts.ratio_bits = [out.ratio_sum[MTTS].to_bits(), out.ratio_sum[MTTD].to_bits()];
    out.registry = registry;
    out.cow_clones = cow(&replay.mgr) - cow_before;
    let shed: u64 = replay.receivers.iter().map(DeliveryReceiver::dropped).sum();
    if shed > 0 {
        out.failed += shed - 1;
        out.fail(format!("delivery queues shed {shed} deltas"));
    }
    if traced {
        replay.observe();
    }
    replay.spans.close(run_span);
    replay.out
}
