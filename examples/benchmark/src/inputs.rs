//! Seed-driven inputs: the element stream cut into buckets, the standing
//! panel and the ad-hoc probe vectors.  The program under test receives only
//! what this module generates and validates.

use std::sync::Arc;
use std::time::Instant;

use ksir::datagen::{DatasetProfile, GeneratedStream, QueryWorkloadGenerator, StreamGenerator};
use ksir::stream::for_each_bucket;
use ksir::types::DenseTopicWordTable;
use ksir::{
    Algorithm, ElementId, KsirQuery, QueryVector, SocialElement, Timestamp, TopicId, TopicVector,
};

use crate::workloads::{Panel, Shape, Workload};

/// Result size and approximation parameter of every ad-hoc probe (the
/// paper's defaults).
pub const PROBE_K: usize = 10;
pub const PROBE_EPSILON: f64 = 0.1;
/// Checkpoints per measured section.
pub const CHECKPOINTS: usize = 8;

/// SplitMix64: the harness's own generator for everything `ksir-datagen`
/// does not draw (references, panels), so inputs depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn poisson(&mut self, lambda: f64) -> usize {
        let limit = (-lambda).exp();
        let (mut k, mut p) = (0usize, self.unit());
        while p > limit {
            k += 1;
            p *= self.unit();
        }
        k
    }
}

/// One slide's worth of elements, ending at `end`.
#[derive(Debug, Clone)]
pub struct Bucket {
    pub end: Timestamp,
    pub items: Vec<(SocialElement, TopicVector)>,
}

/// Everything one run feeds the program.
#[derive(Debug)]
pub struct Inputs {
    pub phi: Arc<DenseTopicWordTable>,
    pub buckets: Vec<Bucket>,
    /// Leading buckets that fill the window; ingesting them is set-up.
    pub warmup: usize,
    pub panel: Vec<(KsirQuery, Algorithm)>,
    /// `CHECKPOINTS × probes_per_checkpoint` ad-hoc queries.
    pub probes: Vec<KsirQuery>,
    /// Panel positions the oracle re-evaluates, per checkpoint.
    pub oracle_sample: Vec<Vec<usize>>,
    pub elements: usize,
    pub generate_s: f64,
}

impl Inputs {
    pub fn measured(&self) -> &[Bucket] {
        &self.buckets[self.warmup..]
    }
}

/// Generates and validates the inputs of `workload` from `seed`.
pub fn generate(workload: &Workload, seed: u64) -> Result<Inputs, String> {
    let started = Instant::now();
    let err = |e: ksir::KsirError| e.to_string();

    let base = match workload.shape {
        Shape::Aminer => DatasetProfile::aminer(),
        Shape::Twitter => DatasetProfile::twitter(),
    };
    let (avg_refs, horizon) = (base.avg_refs, base.reference_horizon);
    let mut profile = base
        .with_topics(workload.topics)
        .with_elements(workload.elements);
    profile.time_span = workload.span;
    // Keep about twenty topic-exclusive words per topic whatever `z` is.
    profile.vocab_size = profile.vocab_size.max(20 * workload.topics);
    // `StreamGenerator::sample_references` rescans the whole horizon per
    // element; references are attached below in O(1) each instead.
    profile.avg_refs = 0.0;
    let mut stream = StreamGenerator::new(profile, seed)
        .map_err(err)?
        .generate()
        .map_err(err)?;
    attach_references(&mut stream, avg_refs, horizon, &mut Rng::new(seed, 1));
    validate_stream(&stream, horizon)?;

    let topics = workload.topics;
    let panel = build_panel(&workload.panel, topics, &mut Rng::new(seed, 2))?;
    let end_time = stream.end_time();
    let probes = QueryWorkloadGenerator::new(&stream.planted, seed)
        .generate(CHECKPOINTS * workload.probes_per_checkpoint, end_time)
        .map_err(err)?
        .into_iter()
        .map(|q| KsirQuery::new(PROBE_K, q.vector)?.with_epsilon(PROBE_EPSILON))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let mut rng = Rng::new(seed, 3);
    let oracle_sample = (0..CHECKPOINTS)
        .map(|_| (0..16).map(|_| rng.below(panel.len())).collect())
        .collect();

    let phi = Arc::new(stream.planted.phi().clone());
    let elements = stream.len();
    let GeneratedStream {
        elements: stream_elements,
        topic_vectors,
        ..
    } = stream;
    let mut buckets = Vec::new();
    for_each_bucket(
        workload.bucket,
        Timestamp::ZERO,
        stream_elements.into_iter().zip(topic_vectors),
        |items, end| {
            buckets.push(Bucket { end, items });
            Ok(())
        },
    )
    .map_err(err)?;
    let warmup = (workload.window / workload.bucket) as usize;
    if buckets.len() < warmup + 2 * CHECKPOINTS {
        return Err(format!(
            "{}: {} buckets leave no measured section after {warmup} warm-up buckets",
            workload.name,
            buckets.len()
        ));
    }
    Ok(Inputs {
        phi,
        buckets,
        warmup,
        panel,
        probes,
        oracle_sample,
        elements,
        generate_s: started.elapsed().as_secs_f64(),
    })
}

/// Copy-model reference attachment, O(1) per reference: a target is either a
/// uniformly drawn earlier element inside the horizon or, half the time, one
/// of *that* element's own targets — which is preferential attachment
/// without keeping degree tables.  Up to three draws look for a candidate
/// sharing the child's dominant topic, because influence only propagates
/// along topically related references.
fn attach_references(stream: &mut GeneratedStream, avg_refs: f64, horizon: u64, rng: &mut Rng) {
    let dominant: Vec<Option<TopicId>> = stream
        .topic_vectors
        .iter()
        .map(TopicVector::dominant_topic)
        .collect();
    let (mut lo, mut same_ts_from) = (0usize, 0usize);
    for i in 0..stream.elements.len() {
        let ts = stream.elements[i].ts;
        if i > 0 && stream.elements[i - 1].ts != ts {
            same_ts_from = i;
        }
        while stream.elements[lo].ts < ts.saturating_sub(horizon) {
            lo += 1;
        }
        // Candidates: strictly earlier timestamps, inside the horizon.
        let candidates = same_ts_from.saturating_sub(lo);
        let wanted = rng.poisson(avg_refs);
        if candidates == 0 || wanted == 0 {
            continue;
        }
        let mut refs: Vec<ElementId> = Vec::with_capacity(wanted);
        for _ in 0..wanted {
            let mut target = lo;
            for _ in 0..3 {
                target = lo + rng.below(candidates);
                let grand = &stream.elements[target].refs;
                if !grand.is_empty() && rng.unit() < 0.5 {
                    let copied = (grand[rng.below(grand.len())].raw() - 1) as usize;
                    if copied >= lo {
                        target = copied;
                    }
                }
                if dominant[target] == dominant[i] {
                    break;
                }
            }
            refs.push(stream.elements[target].id);
        }
        let element = &mut stream.elements[i];
        *element = SocialElement::new(
            element.id,
            element.ts,
            std::mem::take(&mut element.doc),
            refs,
        );
    }
}

/// Ids are `1..=n`, timestamps never decrease, every reference is strictly
/// earlier and inside the horizon.  A violation aborts the run: timing a
/// program on inputs it was never meant to see measures nothing.
fn validate_stream(stream: &GeneratedStream, horizon: u64) -> Result<(), String> {
    if stream.elements.len() != stream.topic_vectors.len() {
        return Err("elements and topic vectors differ in length".into());
    }
    let mut last = Timestamp::ZERO;
    for (i, e) in stream.elements.iter().enumerate() {
        if e.id.raw() != i as u64 + 1 {
            return Err(format!("element {i} carries id {}", e.id));
        }
        if e.ts < last {
            return Err(format!("timestamp of {} goes backwards", e.id));
        }
        last = e.ts;
        for r in &e.refs {
            let parent = stream
                .elements
                .get((r.raw() as usize).wrapping_sub(1))
                .ok_or_else(|| format!("{} references unknown {r}", e.id))?;
            if parent.ts >= e.ts || e.ts.since(parent.ts) > horizon {
                return Err(format!(
                    "{} references {r} outside (ts - horizon, ts)",
                    e.id
                ));
            }
        }
    }
    Ok(())
}

fn weighted(topics: usize, entries: &[(usize, f64)]) -> Result<QueryVector, String> {
    let mut weights = vec![0.0; topics];
    for &(topic, weight) in entries {
        weights[topic] = weight;
    }
    QueryVector::new(weights).map_err(|e| e.to_string())
}

/// Distinct ordered topic pairs, drawn without replacement.
fn distinct_pairs(count: usize, topics: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(count);
    while pairs.len() < count {
        let pair = (rng.below(topics), rng.below(topics));
        if pair.0 != pair.1 && !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    pairs
}

fn build_panel(
    panel: &Panel,
    topics: usize,
    rng: &mut Rng,
) -> Result<Vec<(KsirQuery, Algorithm)>, String> {
    let query = |k: usize, v: QueryVector| KsirQuery::new(k, v).map_err(|e| e.to_string());
    match *panel {
        Panel::Narrow { count } => {
            let mut chosen: Vec<usize> = Vec::with_capacity(count);
            while chosen.len() < count {
                let topic = rng.below(topics);
                if !chosen.contains(&topic) {
                    chosen.push(topic);
                }
            }
            chosen
                .into_iter()
                .map(|t| Ok((query(5, weighted(topics, &[(t, 1.0)])?)?, Algorithm::Mttd)))
                .collect()
        }
        Panel::Distinct { count } => distinct_pairs(count, topics, rng)
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let algorithm = if i % 2 == 0 {
                    Algorithm::Mttd
                } else {
                    Algorithm::Mtts
                };
                let vector = weighted(topics, &[(a, 0.7), (b, 0.3)])?;
                Ok((query(5 + 5 * (i % 3), vector)?, algorithm))
            })
            .collect(),
        Panel::Zipf { count, templates } => {
            // The templates are the same for every seed, so the popular plans
            // sit at the same place in the shard order; which subscriber
            // follows which template is what the seed draws.
            let pool: Vec<(QueryVector, Algorithm)> = (0..templates)
                .map(|t| {
                    let algorithm = match t % 3 {
                        0 => Algorithm::Mtts,
                        1 => Algorithm::Mttd,
                        _ => Algorithm::TopkRepresentative,
                    };
                    let pair = [((3 * t + 1) % topics, 0.7), ((3 * t + 11) % topics, 0.3)];
                    Ok((weighted(topics, &pair)?, algorithm))
                })
                .collect::<Result<_, String>>()?;
            // Zipf(1) popularity over template ranks.
            let mut cumulative = Vec::with_capacity(templates);
            let mut total = 0.0;
            for rank in 0..templates {
                total += 1.0 / (rank + 1) as f64;
                cumulative.push(total);
            }
            (0..count)
                .map(|i| {
                    let u = rng.unit() * total;
                    let rank = cumulative.partition_point(|c| *c < u).min(templates - 1);
                    let (vector, algorithm) = &pool[rank];
                    Ok((query(2 + 2 * (i % 4), vector.clone())?, *algorithm))
                })
                .collect()
        }
    }
}
