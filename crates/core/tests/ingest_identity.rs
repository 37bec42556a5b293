//! The index write is an optimisation of a much plainer procedure, and must
//! stay indistinguishable from it.
//!
//! [`OldPath`] below is that procedure, as the engine ran it before it kept
//! per-element rows: every element's sparsified distribution is a dense
//! `z`-wide vector, every refresh recomputes `δ_i(e)` from the document and
//! the children's dense vectors over the vector's support and writes only a
//! tuple whose score bits or `t_e` changed, expiry probes all `z` lists, and
//! the archive holds deep copies.  A ranked list cannot find a tuple by id,
//! so the old path keeps its own `(topic, id) → tuple` index, as the lists
//! once did.  Over a
//! long-document and a short-post stream — several hundred slides each, with
//! elements expiring and coming back, under three sparsification settings —
//! the engine and the old path must agree after **every** slide on the
//! report, the touch log (including its order), every stored tuple and every
//! active element's distribution, bit for bit.

use std::collections::{BTreeSet, HashMap, HashSet};

use ksir_core::config::ArchiveRetention;
use ksir_core::stream::{ActiveWindow, RankedLists, WindowConfig, WindowDelta};
use ksir_core::{
    propagation_prob, word_weight, EngineConfig, IngestReport, KsirEngine, ScoringConfig,
};
use ksir_datagen::{DatasetProfile, StreamGenerator};
use ksir_types::{
    DenseTopicWordTable, ElementId, SocialElement, Timestamp, TopicId, TopicVector,
    TopicWordDistribution,
};

/// Algorithm 1 without any cached state, over dense topic vectors.
struct OldPath<'a> {
    phi: &'a DenseTopicWordTable,
    config: EngineConfig,
    window: ActiveWindow,
    ranked: RankedLists,
    /// Every tuple the lists hold, by `(topic, id)`.
    tuples: HashMap<(TopicId, ElementId), (f64, Timestamp)>,
    topic_vectors: HashMap<ElementId, TopicVector>,
    archive: HashMap<ElementId, (SocialElement, TopicVector)>,
    tuple_updates: usize,
}

impl<'a> OldPath<'a> {
    fn new(phi: &'a DenseTopicWordTable, config: EngineConfig) -> Self {
        OldPath {
            phi,
            config,
            window: ActiveWindow::new(config.window),
            ranked: RankedLists::new(phi.num_topics()),
            tuples: HashMap::new(),
            topic_vectors: HashMap::new(),
            archive: HashMap::new(),
            tuple_updates: 0,
        }
    }

    fn ingest_bucket(
        &mut self,
        bucket: Vec<(SocialElement, TopicVector)>,
        bucket_end: Timestamp,
    ) -> IngestReport {
        let slide_from = self.window.now();
        self.ranked.clear_delta();
        let mut touched: BTreeSet<ElementId> = self
            .window
            .parents_losing_children(bucket_end)
            .into_iter()
            .collect();
        let mut new_ids = Vec::new();
        let mut resurrected = Vec::new();
        for (element, tv) in bucket {
            let id = element.id;
            for &parent in &element.refs {
                if !self.window.contains(parent) {
                    if let Some((archived, archived_tv)) = self.archive.get(&parent).cloned() {
                        self.window.insert(archived).unwrap();
                        self.topic_vectors.insert(parent, archived_tv);
                        touched.insert(parent);
                        resurrected.push(parent);
                    }
                }
            }
            let sparsified = self.sparsify(tv);
            if self.config.archive != ArchiveRetention::Disabled {
                self.archive
                    .insert(id, (element.clone(), sparsified.clone()));
            }
            touched.extend(self.window.insert(element).unwrap());
            self.topic_vectors.insert(id, sparsified);
            new_ids.push(id);
        }
        let expired = self.window.advance_to(bucket_end).unwrap();
        for &id in &expired {
            for topic in (0..self.ranked.num_topics() as u32).map(TopicId) {
                if let Some((score, _)) = self.tuples.remove(&(topic, id)) {
                    self.ranked.erase(topic, id, score);
                }
            }
            self.topic_vectors.remove(&id);
            touched.remove(&id);
        }
        if let ArchiveRetention::Ticks(ticks) = self.config.archive {
            let cutoff = bucket_end.saturating_sub(ticks);
            self.archive.retain(|_, (element, _)| element.ts >= cutoff);
        }
        let mut refreshed = Vec::new();
        for &id in new_ids.iter().chain(touched.iter()) {
            if self.window.contains(id) && self.refresh_tuples(id) && !new_ids.contains(&id) {
                refreshed.push(id);
            }
        }
        IngestReport {
            inserted: new_ids.len(),
            expired: expired.len(),
            refreshed: refreshed.len(),
            resurrected: resurrected.len(),
            delta: WindowDelta {
                from: slide_from,
                to: bucket_end,
                activated: new_ids,
                expired,
                resurrected,
                refreshed,
                ranked: self.ranked.take_delta(),
            },
        }
    }

    fn sparsify(&self, tv: TopicVector) -> TopicVector {
        let min_prob = self.config.min_topic_prob;
        let max_topics = self.config.max_topics_per_element;
        if min_prob <= 0.0 && max_topics.is_none() {
            return tv;
        }
        let mut entries: Vec<(TopicId, f64)> = tv
            .support()
            .into_iter()
            .filter(|(_, p)| *p >= min_prob)
            .collect();
        if entries.is_empty() {
            match tv.dominant_topic() {
                Some(top) => entries.push((top, tv.value(top))),
                None => return tv,
            }
        }
        if let Some(n) = max_topics {
            entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            entries.truncate(n);
        }
        let mut out = TopicVector::zeros(tv.num_topics());
        for (topic, p) in entries {
            out.set(topic, p);
        }
        out.normalize();
        out
    }

    /// `p_i(e)` of an active element, read off its dense vector.
    fn prob(&self, id: ElementId, topic: TopicId) -> f64 {
        self.topic_vectors
            .get(&id)
            .and_then(|tv| tv.get(topic))
            .unwrap_or(0.0)
    }

    /// `δ_i(e) = λ·R_i(e) + (1-λ)/η · I_{i,t}(e)`, straight from §3.2: the
    /// weights of the document's words and the propagation probabilities to
    /// its children, summed in document and influence order.
    fn topicwise(&self, topic: TopicId, id: ElementId) -> f64 {
        let p = self.prob(id, topic);
        let element = self.window.get(id).unwrap();
        let semantic: f64 = element
            .doc
            .iter()
            .map(|(w, freq)| word_weight(freq, self.phi.word_prob(topic, w), p))
            .sum();
        let influence: f64 = self
            .window
            .influenced_iter(id)
            .map(|child| propagation_prob(p, self.prob(child, topic)))
            .sum();
        self.config.scoring.combine(semantic, influence)
    }

    /// Recomputes every tuple of `id` and upserts those that differ from
    /// the stored one in score bits or `t_e`: an identical rewrite is no
    /// change.  Returns whether any tuple was written.
    fn refresh_tuples(&mut self, id: ElementId) -> bool {
        let last_referenced = self.window.last_referenced(id).unwrap();
        let tuples: Vec<(TopicId, f64)> = self.topic_vectors[&id]
            .support()
            .into_iter()
            .map(|(topic, _)| (topic, self.topicwise(topic, id)))
            .collect();
        let mut wrote = false;
        for (topic, score) in tuples {
            self.tuple_updates += 1;
            let new = (score, last_referenced);
            let old = self.tuples.insert((topic, id), new);
            if old.map(|(s, ts)| (s.to_bits(), ts)) == Some((score.to_bits(), last_referenced)) {
                continue;
            }
            let old = old.map(|(s, _)| s);
            self.ranked.write(topic, id, old, score, last_referenced);
            wrote = true;
        }
        wrote
    }
}

/// `(id, score bits, t_e)` of every tuple of one list, in list order.
fn list_bits(lists: &RankedLists, topic: TopicId) -> Vec<(ElementId, u64, Timestamp)> {
    lists
        .list(topic)
        .iter()
        .map(|(id, score, ts)| (id, score.to_bits(), ts))
        .collect()
}

/// The sparsification settings every stream is replayed under: the default
/// top two topics, that plus a probability floor, and no truncation at all.
fn sparsification_settings(base: EngineConfig) -> [(&'static str, EngineConfig); 3] {
    [
        ("top-2", base),
        ("top-2, p >= 0.05", base.with_min_topic_prob(0.05)),
        ("untruncated", base.with_max_topics_per_element(None)),
    ]
}

/// `tv` with 12 % of its mass moved onto a tail of four more topics picked
/// by `id` (weights 6, 3, 2 and 1 %), so that the floor, the truncation and
/// the untruncated setting each keep a different support.  The generator's
/// own vectors have at most two topics.
fn with_tail(id: ElementId, tv: &TopicVector) -> TopicVector {
    let z = tv.num_topics() as u64;
    let mut values: Vec<f64> = tv.as_slice().iter().map(|p| 0.88 * p).collect();
    for (i, weight) in [0.06, 0.03, 0.02, 0.01].into_iter().enumerate() {
        let topic = (id.raw() * 7 + i as u64 * 5 + 3) % z;
        values[topic as usize] += weight;
    }
    TopicVector::from_values(values).unwrap()
}

/// Replays `profile`'s stream through the engine and the old path side by
/// side under `archive` and each sparsification setting, checking every
/// slide.
fn replay(profile: DatasetProfile, archive: ArchiveRetention) {
    let stream = StreamGenerator::new(profile.clone(), 0x0dd_ba11)
        .unwrap()
        .generate()
        .unwrap();
    let pairs: Vec<(SocialElement, TopicVector)> = stream
        .iter_pairs()
        .map(|(element, tv)| {
            let tv = with_tail(element.id, &tv);
            (element, tv)
        })
        .collect();
    // A six-hour window under reference horizons of twelve hours and seven
    // days: most references reach elements that already expired.
    let base = EngineConfig::new(
        WindowConfig::new(6 * 60, 15).unwrap(),
        ScoringConfig::new(0.5, 2.0).unwrap(),
    )
    .with_archive(archive);
    for (setting, config) in sparsification_settings(base) {
        let name = format!("{} ({setting})", profile.name);
        replay_under(&name, stream.planted.phi(), config, pairs.clone());
    }
}

fn replay_under(
    name: &str,
    phi: &DenseTopicWordTable,
    config: EngineConfig,
    pairs: Vec<(SocialElement, TopicVector)>,
) {
    let z = phi.num_topics();
    let mut engine = KsirEngine::new(phi.clone(), config).unwrap();
    let mut old = OldPath::new(phi, config);

    let (mut slides, mut expired, mut resurrected, mut refreshed) = (0, 0, 0, 0);
    let mut widest = 0;
    ksir_core::stream::for_each_bucket(15, Timestamp::ZERO, pairs, |bucket, end| {
        let expected = old.ingest_bucket(bucket.clone(), end);
        let report = engine.ingest_bucket(bucket, end)?;
        let at = format!("{name} slide {slides} (t = {end})");
        assert_eq!(report, expected, "report, {at}");
        assert_eq!(
            report.delta.touches(),
            expected.delta.touches(),
            "touch log order, {at}"
        );
        assert_eq!(engine.stats().tuple_updates, old.tuple_updates, "{at}");
        assert_eq!(engine.archived_count(), old.archive.len(), "{at}");

        // Every stored tuple equals the old path's, and the direct formula.
        let scorer = engine.scorer();
        let mut held = HashSet::new();
        for topic in (0..z as u32).map(TopicId) {
            let stored = list_bits(engine.ranked_lists(), topic);
            assert_eq!(stored, list_bits(&old.ranked, topic), "{topic}, {at}");
            for (id, bits, ts) in stored {
                held.insert((topic, id));
                assert_eq!(bits, scorer.topicwise_element(topic, id).to_bits(), "{at}");
                assert_eq!(Some(ts), engine.window().last_referenced(id), "{at}");
            }
        }
        // Every active element's distribution is the old path's sparsified
        // dense vector, entry by entry; each list holds exactly the active
        // elements with that topic in their support: targeted removal left
        // no orphan, missed no tuple.
        let mut expected_entries = 0;
        for id in engine.active_ids() {
            let vector = engine.topic_vector(id).unwrap();
            let bits = |tv: &TopicVector| tv.as_slice().iter().map(|p| p.to_bits()).collect();
            let expected: Vec<u64> = bits(&old.topic_vectors[&id]);
            assert_eq!(bits(&vector), expected, "{id}, {at}");
            let support = vector.support();
            for &(topic, _) in &support {
                assert!(held.contains(&(topic, id)), "{at}");
            }
            expected_entries += support.len();
            widest = widest.max(support.len());
        }
        assert_eq!(engine.ranked_lists().total_entries(), expected_entries);
        assert_eq!(engine.rows().len(), engine.active_count());

        slides += 1;
        expired += report.expired;
        resurrected += report.resurrected;
        refreshed += report.refreshed;
        Ok(())
    })
    .unwrap();
    assert!(slides >= 200, "{name}: only {slides} slides");
    assert!(
        expired > 0 && resurrected > 0 && refreshed > 0,
        "{name}: {expired} expired, {resurrected} resurrected, {refreshed} refreshed"
    );
    // Two topics and a tail of four: the settings keep different supports.
    let cap = config.max_topics_per_element.unwrap_or(z);
    assert_eq!(widest, cap.min(6), "{name}: widest support");
}

#[test]
fn long_documents_match_the_old_path_on_every_slide() {
    // ≈49 words, ≈3.7 references reaching back seven days.
    replay(
        DatasetProfile::aminer().scaled(0.5).with_topics(20),
        ArchiveRetention::Unbounded,
    );
}

#[test]
fn short_posts_match_the_old_path_on_every_slide() {
    // ≈5 words, ≈0.6 references reaching back twelve hours; the archive
    // forgets after a day, so some references find nothing to bring back.
    replay(
        DatasetProfile::twitter()
            .scaled(0.4)
            .with_elements(4_800)
            .with_topics(20),
        ArchiveRetention::Ticks(24 * 60),
    );
}
