//! The index write is an optimisation of a much plainer procedure, and must
//! stay indistinguishable from it.
//!
//! [`OldPath`] below is that procedure, as the engine ran it before it kept
//! per-element rows: every refresh recomputes `δ_i(e)` from the document
//! through [`Scorer::topicwise_element`] over the dense vector's support,
//! expiry probes all `z` lists (`remove_everywhere`), and the archive holds
//! deep copies.  Over a long-document and a short-post stream — several
//! hundred slides each, with elements expiring and coming back — the engine
//! and the old path must agree after **every** slide on the report, the
//! touch log (including its order) and every stored tuple, bit for bit.

use std::collections::{BTreeSet, HashMap};

use ksir_core::config::ArchiveRetention;
use ksir_core::{EngineConfig, IngestReport, KsirEngine, Scorer, ScoringConfig};
use ksir_datagen::{DatasetProfile, StreamGenerator};
use ksir_stream::{ActiveWindow, RankedLists, WindowConfig, WindowDelta};
use ksir_types::{
    DenseTopicWordTable, ElementId, SocialElement, Timestamp, TopicId, TopicVector,
    TopicWordDistribution,
};

/// Algorithm 1 without any cached state.
struct OldPath<'a> {
    phi: &'a DenseTopicWordTable,
    config: EngineConfig,
    window: ActiveWindow,
    ranked: RankedLists,
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
        for id in &expired {
            self.ranked.remove_everywhere(*id);
            self.topic_vectors.remove(id);
            touched.remove(id);
        }
        if let ArchiveRetention::Ticks(ticks) = self.config.archive {
            let cutoff = bucket_end.saturating_sub(ticks);
            self.archive.retain(|_, (element, _)| element.ts >= cutoff);
        }
        let mut refreshed = Vec::new();
        for &id in new_ids.iter().chain(touched.iter()) {
            if self.window.contains(id) {
                self.refresh_tuples(id);
                if !new_ids.contains(&id) {
                    refreshed.push(id);
                }
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

    fn refresh_tuples(&mut self, id: ElementId) {
        let tv = &self.topic_vectors[&id];
        let last_referenced = self.window.last_referenced(id).unwrap();
        let scorer = Scorer::new(
            self.phi,
            self.config.scoring,
            &self.window,
            &self.topic_vectors,
        );
        let tuples: Vec<(TopicId, f64)> = tv
            .support()
            .into_iter()
            .map(|(topic, _)| (topic, scorer.topicwise_element(topic, id)))
            .collect();
        for (topic, score) in tuples {
            self.ranked.upsert(topic, id, score, last_referenced);
            self.tuple_updates += 1;
        }
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

/// Replays `profile`'s stream through the engine and the old path side by
/// side under `archive`, checking every slide.
fn replay(profile: DatasetProfile, archive: ArchiveRetention) {
    let name = profile.name.clone();
    let stream = StreamGenerator::new(profile, 0x0dd_ba11)
        .unwrap()
        .generate()
        .unwrap();
    // A six-hour window under reference horizons of twelve hours and seven
    // days: most references reach elements that already expired.
    let config = EngineConfig::new(
        WindowConfig::new(6 * 60, 15).unwrap(),
        ScoringConfig::new(0.5, 2.0).unwrap(),
    )
    .with_archive(archive);
    let phi = stream.planted.phi();
    let z = phi.num_topics();
    let mut engine = KsirEngine::new(phi.clone(), config).unwrap();
    let mut old = OldPath::new(phi, config);

    let (mut slides, mut expired, mut resurrected, mut refreshed) = (0, 0, 0, 0);
    ksir_stream::for_each_bucket(15, Timestamp::ZERO, stream.iter_pairs(), |bucket, end| {
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
        for topic in (0..z as u32).map(TopicId) {
            let stored = list_bits(engine.ranked_lists(), topic);
            assert_eq!(stored, list_bits(&old.ranked, topic), "{topic}, {at}");
            for (id, bits, ts) in stored {
                assert_eq!(bits, scorer.topicwise_element(topic, id).to_bits(), "{at}");
                assert_eq!(Some(ts), engine.window().last_referenced(id), "{at}");
            }
        }
        // Each list holds exactly the active elements with that topic in
        // their support: targeted removal left no orphan, missed no tuple.
        let mut expected_entries = 0;
        for id in engine.active_ids() {
            for (topic, _) in engine.topic_vector(id).unwrap().support() {
                assert!(engine.ranked_lists().list(topic).contains(id), "{at}");
                expected_entries += 1;
            }
        }
        assert_eq!(engine.ranked_lists().total_entries(), expected_entries);
        assert_eq!(engine.topic_vectors().len(), engine.active_count());

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
