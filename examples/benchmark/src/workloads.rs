//! The four workloads.  `why` is the same sentence `BENCHMARK.json` carries.

/// Which dataset preset shapes the documents and references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Long documents (49 words), 3.7 references, 7-day reference horizon.
    Aminer,
    /// Short posts (5 words), 0.6 references, 12-hour reference horizon.
    Twitter,
}

/// The standing-query population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// `count` single-topic MTTD subscriptions, `k = 5`.
    Narrow { count: usize },
    /// `count` distinct 2-topic subscriptions, `k ∈ {5, 10, 15}`, MTTD and
    /// MTTS alternating: no two share a plan.
    Distinct { count: usize },
    /// `count` subscriptions drawn Zipf(1) from `templates` plan templates,
    /// `k` cycling through 2/4/6/8: most share a plan.
    Zipf { count: usize, templates: usize },
}

/// How buckets reach the manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `ingest_bucket`: the caller gets the full `SlideOutcome` back.
    Sync,
    /// `ingest_bucket_async`; the first half of the measured slides is paced
    /// open-loop at one bucket per `pace_us`, the second half runs flat out.
    Async { pace_us: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    pub elements: usize,
    /// Stream length in ticks (1 tick = 1 minute).
    pub span: u64,
    pub topics: usize,
    /// Window length `T` and bucket length `L`, in ticks.
    pub window: u64,
    pub bucket: u64,
    pub panel: Panel,
    pub path: Path,
    pub probes_per_checkpoint: usize,
    /// Leading probes of each checkpoint that CELF also answers, as the
    /// quality reference.
    pub celf_per_checkpoint: usize,
}

const DAY: u64 = 24 * 60;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_dense",
        why: "Long documents, many references and a 7-day reference horizon make engine ingest (window, influence refresh, ranked-list upserts) most of every slide; the 4-query panel only keeps delivery defined.",
        shape: Shape::Aminer,
        elements: 60_000,
        span: 5 * DAY,
        topics: 200,
        window: DAY,
        bucket: 30,
        panel: Panel::Narrow { count: 4 },
        path: Path::Sync,
        probes_per_checkpoint: 64,
        celf_per_checkpoint: 8,
    },
    Workload {
        name: "adhoc_wide",
        why: "Broad ad-hoc MTTS/MTTD queries over a large 50-topic window make index traversal and scoring most of the run (the paper's Fig. 9-12 regime), with ingest throughput read off the same engine.",
        shape: Shape::Twitter,
        elements: 80_000,
        span: 7 * DAY,
        topics: 50,
        window: DAY,
        bucket: 15,
        panel: Panel::Narrow { count: 4 },
        path: Path::Sync,
        probes_per_checkpoint: 224,
        celf_per_checkpoint: 16,
    },
    Workload {
        name: "standing_distinct",
        why: "128 distinct 2-topic subscriptions over 200 topics make per-subscription refresh most of a slide and let the touch-filter skip rules fire, while plan sharing, snapshots and queues stay idle.",
        shape: Shape::Twitter,
        elements: 21_000,
        span: 7 * DAY / 2,
        topics: 200,
        window: 6 * 60,
        bucket: 15,
        panel: Panel::Distinct { count: 128 },
        path: Path::Sync,
        probes_per_checkpoint: 64,
        celf_per_checkpoint: 16,
    },
    Workload {
        name: "standing_shared_async",
        why: "250 Zipf subscriptions over 10 shared plans through the async path: shared covering runs, a snapshot per epoch, one pool worker and wide delivery fan-out; half paced open-loop, half flat out.",
        shape: Shape::Twitter,
        elements: 27_000,
        span: 81 * 60,
        topics: 50,
        window: 6 * 60,
        bucket: 15,
        panel: Panel::Zipf {
            count: 250,
            templates: 10,
        },
        path: Path::Async { pace_us: 16_000 },
        probes_per_checkpoint: 64,
        celf_per_checkpoint: 16,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The ~1/10-size variant `--smoke` runs; its numbers compare with
    /// nothing.
    pub fn smoke(&self) -> Workload {
        let mut w = *self;
        // Keep the window's worth of warm-up plus a short measured section
        // that still has a few slides per checkpoint.
        w.span = self.window + ((self.span - self.window) / 10).max(24 * self.bucket);
        w.elements = (self.elements as f64 * w.span as f64 / self.span as f64) as usize;
        w.probes_per_checkpoint = (self.probes_per_checkpoint / 8).max(self.celf_per_checkpoint);
        w
    }
}
