//! Property-based tests of the k-SIR scoring function and query algorithms on
//! randomly generated streams.
//!
//! Random instances are generated from a seed (so that proptest failures are
//! reproducible from the printed seed) and the following invariants are
//! checked:
//!
//! * Lemma 3.6 / 3.7: the scoring function is monotone and submodular.
//! * The incremental marginal-gain state matches from-scratch scoring.
//! * Element profiles — the once-per-element scoring pass every `δ`, gain and
//!   insert reads — agree with the from-scratch [`Scorer`] and, bit for bit,
//!   with the stored ranked-list tuples, on the awkward inputs: zero
//!   probability on a query topic, inactive ids, repeated members, children
//!   straddling the window start.
//! * Theorems 4.2 / 4.4 and the baselines' guarantees hold against the
//!   exhaustive optimum on small instances.
//! * Algorithm 1 keeps the ranked-list tuples equal to the directly computed
//!   topic-wise scores `f_i({e})`, even across expiry and resurrection.
//! * A slide's touch log covers every change it made: lists it did not touch,
//!   and entries above the touches of those it did, are bit-identical.
//! * A slide touching only tuples below the loosest floor of a set of
//!   frontiers disturbs none of them, and one touching at or above it
//!   disturbs one — so "no resident classifies" is a sound shard and
//!   cluster skip.
//! * One [`QuerySource::query_per_k`] pass answers every requested size
//!   exactly as that size's own run, bit for bit, on the live engine and on
//!   an epoch snapshot.

use std::sync::Arc;

use proptest::prelude::*;
// Explicit trait imports: `proptest::prelude::*` re-exports a different rand
// version, so the glob `rand::prelude::*` would leave these traits shadowed.
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

use ksir_core::stream::{
    RankedDelta, RankedList, RankedLists, WindowConfig, WindowDelta, FLOOR_SLACK,
};
use ksir_core::{
    Algorithm, ElementRow, EngineConfig, EngineSnapshot, KsirEngine, KsirQuery, ProfileArena,
    QueryEvaluator, QueryFrontier, QueryResult, QuerySource, Scorer, ScoringConfig,
};
use ksir_types::{
    DenseTopicWordTable, ElementId, QueryVector, SocialElement, SocialElementBuilder, Timestamp,
    TopicId, TopicVector,
};

/// Parameters of a random instance.
#[derive(Debug, Clone)]
struct InstanceParams {
    seed: u64,
    num_elements: usize,
    num_topics: usize,
    vocab_size: usize,
    window_len: u64,
    lambda_tenths: u8,
    k: usize,
}

fn instance_params() -> impl Strategy<Value = InstanceParams> {
    (
        any::<u64>(),
        5usize..=12,
        2usize..=4,
        8usize..=16,
        3u64..=8,
        0u8..=10,
        1usize..=3,
    )
        .prop_map(
            |(seed, num_elements, num_topics, vocab_size, window_len, lambda_tenths, k)| {
                InstanceParams {
                    seed,
                    num_elements,
                    num_topics,
                    vocab_size,
                    window_len,
                    lambda_tenths,
                    k,
                }
            },
        )
}

/// A fully built random instance: engine at the end of the stream + a query.
struct Instance {
    engine: KsirEngine<DenseTopicWordTable>,
    query: KsirQuery,
    query_vector: QueryVector,
}

/// A random instance before ingestion: an empty engine plus the stream it is
/// to be fed, one bucket (= slide) per element.  Lets slide-replaying tests
/// interleave queries with ingestion.
struct StreamInstance {
    engine: KsirEngine<DenseTopicWordTable>,
    stream: Vec<(SocialElement, TopicVector)>,
    query: KsirQuery,
    query_vector: QueryVector,
}

fn build_stream_instance(p: &InstanceParams) -> StreamInstance {
    build_sparsified_stream_instance(p, None)
}

/// [`build_stream_instance`] with the engine keeping only each element's
/// `max_topics` most probable topics, so elements have exactly zero
/// probability on the rest.
fn build_sparsified_stream_instance(
    p: &InstanceParams,
    max_topics: Option<usize>,
) -> StreamInstance {
    let mut rng = StdRng::seed_from_u64(p.seed);

    // Random topic-word table with normalised rows.
    let rows: Vec<Vec<f64>> = (0..p.num_topics)
        .map(|_| {
            let mut row: Vec<f64> = (0..p.vocab_size).map(|_| rng.gen::<f64>()).collect();
            let sum: f64 = row.iter().sum();
            row.iter_mut().for_each(|v| *v /= sum);
            row
        })
        .collect();
    let phi = DenseTopicWordTable::from_rows(rows).unwrap();

    let scoring = ScoringConfig::new(f64::from(p.lambda_tenths) / 10.0, 2.0).unwrap();
    let config = EngineConfig::new(WindowConfig::new(p.window_len, 1).unwrap(), scoring)
        .with_max_topics_per_element(max_topics);
    let engine = KsirEngine::new(phi, config).unwrap();

    // Random stream: increasing timestamps, random words, random references to
    // earlier elements, random (normalised) topic vectors.
    let mut stream = Vec::with_capacity(p.num_elements);
    let mut ts = 0u64;
    for i in 1..=p.num_elements as u64 {
        ts += rng.gen_range(1..=2u64);
        let num_words = rng.gen_range(1..=5);
        let words: Vec<u32> = (0..num_words)
            .map(|_| rng.gen_range(0..p.vocab_size as u32))
            .collect();
        let mut builder = SocialElementBuilder::new(i).at(ts).words(words);
        if i > 1 {
            for _ in 0..rng.gen_range(0..=2) {
                builder = builder.referencing(rng.gen_range(1..i));
            }
        }
        let element: SocialElement = builder.build();
        let weights: Vec<f64> = (0..p.num_topics).map(|_| rng.gen::<f64>()).collect();
        let tv = TopicVector::normalized(weights).unwrap();
        stream.push((element, tv));
    }

    let query_weights: Vec<f64> = (0..p.num_topics).map(|_| rng.gen::<f64>() + 0.01).collect();
    let query_vector = QueryVector::new(query_weights).unwrap();
    let query = KsirQuery::new(p.k, query_vector.clone())
        .unwrap()
        .with_epsilon(0.1)
        .unwrap();

    StreamInstance {
        engine,
        stream,
        query,
        query_vector,
    }
}

fn build_instance(p: &InstanceParams) -> Instance {
    let StreamInstance {
        mut engine,
        stream,
        query,
        query_vector,
    } = build_stream_instance(p);
    for (element, tv) in stream {
        let end = element.ts;
        engine.ingest_bucket(vec![(element, tv)], end).unwrap();
    }
    Instance {
        engine,
        query,
        query_vector,
    }
}

/// Picks a random subset of the active elements.
fn random_subset(rng: &mut StdRng, ids: &[ElementId], max_len: usize) -> Vec<ElementId> {
    let mut subset: Vec<ElementId> = ids
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.4))
        .take(max_len)
        .collect();
    subset.sort_unstable();
    subset.dedup();
    subset
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 3.6 / 3.7: `f(·, x)` is monotone and submodular.
    #[test]
    fn scoring_is_monotone_and_submodular(p in instance_params()) {
        let instance = build_instance(&p);
        let engine = &instance.engine;
        let scorer = engine.scorer();
        let ids = engine.active_ids();
        prop_assume!(!ids.is_empty());
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0xdead_beef);

        for _ in 0..4 {
            let small = random_subset(&mut rng, &ids, 3);
            // Superset of `small`.
            let mut large = small.clone();
            for &id in &ids {
                if !large.contains(&id) && rng.gen_bool(0.5) {
                    large.push(id);
                }
            }
            let extra = ids[rng.gen_range(0..ids.len())];
            let f_small = scorer.set_score(&instance.query_vector, &small);
            let f_large = scorer.set_score(&instance.query_vector, &large);
            // Monotone: adding elements never decreases the score.
            prop_assert!(f_large + 1e-9 >= f_small);
            // Non-negative.
            prop_assert!(f_small >= 0.0);
            // Submodular: the marginal gain of `extra` shrinks on the superset.
            if !small.contains(&extra) && !large.contains(&extra) {
                let g_small = scorer.marginal_gain(&instance.query_vector, &small, extra);
                let g_large = scorer.marginal_gain(&instance.query_vector, &large, extra);
                prop_assert!(g_small + 1e-9 >= g_large);
                prop_assert!(g_large >= -1e-9);
            }
        }
    }

    /// The incremental candidate state agrees with from-scratch evaluation.
    #[test]
    fn incremental_gains_match_scratch(p in instance_params()) {
        let instance = build_instance(&p);
        let engine = &instance.engine;
        let scorer = engine.scorer();
        let ids = engine.active_ids();
        prop_assume!(!ids.is_empty());
        let evaluator = QueryEvaluator::new(scorer, &instance.query_vector);
        let mut state = evaluator.new_candidate();
        let mut selected: Vec<ElementId> = Vec::new();
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0x5eed);
        for _ in 0..ids.len().min(5) {
            let id = ids[rng.gen_range(0..ids.len())];
            let scratch = scorer.marginal_gain(&instance.query_vector, &selected, id);
            let incremental = evaluator.marginal_gain(&state, id);
            prop_assert!((scratch - incremental).abs() < 1e-9,
                "scratch {scratch} vs incremental {incremental}");
            evaluator.insert(&mut state, id);
            if !selected.contains(&id) {
                selected.push(id);
            }
            let full = scorer.set_score(&instance.query_vector, &selected);
            prop_assert!((full - state.score()).abs() < 1e-9);
        }
    }

    /// Element profiles against the references, on a window built to hit
    /// the guards: topic vectors sparsified to two topics (zero probability
    /// on some query topic), a parent given one child posted *before* the
    /// window start and one inside it, an inactive id, and repeated picks
    /// (ids that are already members).
    #[test]
    fn element_profiles_agree_with_the_references(p in instance_params()) {
        let StreamInstance { mut engine, stream, query: _, query_vector } =
            build_sparsified_stream_instance(&p, Some(2));
        for (element, tv) in stream {
            let end = element.ts;
            engine.ingest_bucket(vec![(element, tv)], end).unwrap();
        }
        let ids = engine.active_ids();
        prop_assume!(!ids.is_empty());
        let support = query_vector.support();

        // δ(e, x) read off a profile is, bit for bit, the weighted sum of the
        // element's stored tuples — absent tuples being the topics where
        // p_i(e) = 0 — and what the id-taking wrapper returns.
        let evaluator = QueryEvaluator::new(engine.scorer(), &query_vector);
        let mut arena = ProfileArena::default();
        for &id in &ids {
            let profile = evaluator.profile(&mut arena, id);
            prop_assert_eq!(arena.get(profile).id(), id);
            let delta = evaluator.delta_of(arena.get(profile));
            let mut stored = 0.0;
            for &(topic, weight) in &support {
                if let Some((score, _)) = engine.ranked_lists().list(topic).get(id) {
                    stored += weight * score;
                }
            }
            prop_assert_eq!(delta.to_bits(), stored.to_bits(), "δ of {:?}", id);
            prop_assert_eq!(delta.to_bits(), evaluator.delta(id).to_bits());
        }

        // A copy of the window in which one parent's children straddle the
        // window start: the late child is recorded on the parent but lies
        // outside W_t, so neither the reference nor the profile may count it.
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0x0f11e);
        let mut window = engine.window().clone();
        let mut rows = engine.rows().clone();
        let uniform_row = |element: &SocialElement| {
            let support = TopicVector::uniform(p.num_topics).support();
            Arc::new(ElementRow::new(engine.phi(), &element.doc, support))
        };
        let parent = ids[rng.gen_range(0..ids.len())];
        let now = window.now().raw();
        let (late, fresh) = (ElementId(10_000), ElementId(10_001));
        if let Some(before_start) = window.window_start().raw().checked_sub(1) {
            let child = SocialElementBuilder::new(late.raw())
                .at(before_start)
                .words([0, 1])
                .referencing(parent.raw())
                .build();
            let row = uniform_row(&child);
            window.insert(child).unwrap();
            rows.insert(window.slot(late).unwrap(), row);
        }
        let child = SocialElementBuilder::new(fresh.raw())
            .at(now)
            .words([1, 2])
            .referencing(parent.raw())
            .build();
        let row = uniform_row(&child);
        window.insert(child).unwrap();
        rows.insert(window.slot(fresh).unwrap(), row);
        prop_assert!(!window.influenced_by(parent).contains(&late));
        prop_assert!(window.influenced_by(parent).contains(&fresh));

        let scoring = engine.config().scoring;
        let scorer = Scorer::new(engine.phi(), scoring, &window, &rows);
        let evaluator = QueryEvaluator::new(scorer, &query_vector);
        let mut pool = ids.clone();
        pool.extend([parent, fresh, ElementId(99_999)]);
        pool.extend(window.contains(late).then_some(late));
        let mut state = evaluator.new_candidate();
        let mut selected: Vec<ElementId> = Vec::new();
        // Profiles pile up in one arena (the MTTD / CELF usage), with a
        // discarded one in between: earlier handles must keep reading back
        // their own columns.
        let mut arena = ProfileArena::default();
        for _ in 0..pool.len().min(8) {
            let id = pool[rng.gen_range(0..pool.len())];
            let profile = evaluator.profile(&mut arena, id);
            evaluator.profile(&mut arena, parent);
            arena.pop();
            let profile = arena.get(profile);
            let before = evaluator.gain_evaluations();
            let gain = evaluator.gain_of(&state, profile);
            prop_assert_eq!(evaluator.gain_evaluations(), before + 1);
            let scratch = scorer.marginal_gain(&query_vector, &selected, id);
            prop_assert!((scratch - gain).abs() < 1e-9,
                "{:?}: scratch {} vs profile {}", id, scratch, gain);
            prop_assert_eq!(gain.to_bits(), evaluator.marginal_gain(&state, id).to_bits());
            if selected.contains(&id) || !window.contains(id) {
                prop_assert_eq!(gain, 0.0);
            }
            // The insert realises exactly the gain just reported, and is not
            // itself a gain evaluation.
            let before = evaluator.gain_evaluations();
            let realised = evaluator.insert_profile(&mut state, profile);
            prop_assert_eq!(evaluator.gain_evaluations(), before);
            prop_assert_eq!(realised.to_bits(), gain.to_bits());
            if window.contains(id) && !selected.contains(&id) {
                selected.push(id);
            }
            prop_assert_eq!(state.members(), &selected[..]);
            let full = scorer.set_score(&query_vector, &selected);
            prop_assert!((full - state.score()).abs() < 1e-9);
        }
    }

    /// Approximation guarantees against the exhaustive optimum.
    #[test]
    fn algorithms_meet_guarantees(p in instance_params()) {
        let instance = build_instance(&p);
        let engine = &instance.engine;
        let q = &instance.query;
        let opt = engine.exhaustive_optimum(q).unwrap().score;
        let e = std::f64::consts::E;
        let guarantees = [
            (Algorithm::Celf, 1.0 - 1.0 / e),
            (Algorithm::Mttd, 1.0 - 1.0 / e - q.epsilon()),
            (Algorithm::Mtts, 0.5 - q.epsilon()),
            (Algorithm::SieveStreaming, 0.5 - q.epsilon()),
            (Algorithm::TopkRepresentative, 1.0 / q.k() as f64),
        ];
        for (alg, ratio) in guarantees {
            let r = engine.query(q, alg).unwrap();
            prop_assert!(r.score + 1e-9 >= ratio * opt,
                "{alg}: {} < {}·OPT ({})", r.score, ratio, ratio * opt);
            prop_assert!(r.len() <= q.k());
            // Every returned element is active and unique.
            let mut sorted = r.sorted_elements();
            let before = sorted.len();
            sorted.dedup();
            prop_assert_eq!(before, sorted.len());
            for id in &r.elements {
                prop_assert!(engine.is_active(*id));
            }
        }
    }

    /// Algorithm 1 invariant: stored ranked-list tuples always equal the
    /// directly computed topic-wise scores over the current window.
    #[test]
    fn ranked_lists_stay_consistent(p in instance_params()) {
        let instance = build_instance(&p);
        let engine = &instance.engine;
        let scorer = engine.scorer();
        for topic_idx in 0..engine.num_topics() {
            let topic = ksir_types::TopicId(topic_idx as u32);
            for (id, stored, _) in engine.ranked_lists().list(topic).iter() {
                let direct = scorer.topicwise_element(topic, id);
                prop_assert!((stored - direct).abs() < 1e-9,
                    "stale tuple for {id} on topic {topic_idx}: {stored} vs {direct}");
                prop_assert!(engine.is_active(id));
            }
            // Scores are non-negative and the traversal order is non-increasing.
            let scores: Vec<f64> = engine
                .ranked_lists()
                .list(topic)
                .iter()
                .map(|(_, s, _)| s)
                .collect();
            prop_assert!(scores.windows(2).all(|w| w[0] >= w[1]));
            prop_assert!(scores.iter().all(|s| *s >= 0.0));
        }
    }

    /// Skip-rule soundness: the residents of a shard or plan cluster all
    /// skip a slide exactly when its touches lie below their loosest floor.
    /// A touch below the minimum floor over the residents' frontiers (by more
    /// than [`FLOOR_SLACK`]) disturbs no frontier; a touch at or above it
    /// disturbs the frontier that holds the minimum.
    #[test]
    fn touches_below_the_aggregated_floor_disturb_no_frontier(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_topics = rng.gen_range(1..=4usize);
        let num_frontiers = rng.gen_range(1..=5);
        let frontiers = random_frontiers(&mut rng, num_topics, num_frontiers);

        for topic_idx in 0..num_topics {
            let topic = TopicId(topic_idx as u32);
            // A random ranked list for this topic.
            let mut list = RankedList::new();
            for id in 1..=rng.gen_range(1..=30u64) {
                list.upsert(ElementId(id), rng.gen::<f64>(), Timestamp(id));
            }
            // The loosest floor on this topic: unwatched and exhausted lists
            // (every touch counts) have nothing to check.
            let watched: Vec<Option<f64>> = frontiers
                .iter()
                .flat_map(|f| f.floors.iter())
                .filter(|&&(t, _)| t == topic)
                .map(|&(_, floor)| floor)
                .collect();
            if watched.is_empty() || watched.contains(&None) {
                continue;
            }
            let floor = watched.iter().flatten().copied().fold(f64::INFINITY, f64::min);
            // The list splits at `floor - FLOOR_SLACK`: a touch at the score
            // of any tuple below the split is invisible to every refresh
            // decision, and one above it reaches the loosest resident.
            for (_, score, _) in list.iter() {
                let mut touch = RankedDelta::new(num_topics);
                touch.record(topic, score);
                let disturbed = frontiers.iter().any(|f| f.disturbed_by(&touch));
                prop_assert_eq!(
                    disturbed,
                    score >= floor - FLOOR_SLACK,
                    "touch at {} against loosest floor {}", score, floor
                );
            }
        }
    }

    /// Once the whole stream slides out of the window (and nothing references
    /// it any more), every algorithm returns the empty result.
    #[test]
    fn queries_on_an_emptied_window_return_nothing(p in instance_params()) {
        let mut instance = build_instance(&p);
        let far_future = Timestamp(instance.engine.now().raw() + 10 * p.window_len + 10);
        instance.engine.ingest_bucket(vec![], far_future).unwrap();
        prop_assert_eq!(instance.engine.active_count(), 0);
        for alg in Algorithm::ALL {
            let r = instance.engine.query(&instance.query, alg).unwrap();
            prop_assert!(r.is_empty(), "{} returned elements from an empty window", alg);
            prop_assert_eq!(r.score, 0.0);
        }
    }
}

/// Element ids a slide changed: activated, resurrected, or with refreshed
/// ranked-list tuples.
fn changed_ids(delta: &WindowDelta) -> Vec<ElementId> {
    delta
        .activated
        .iter()
        .chain(&delta.resurrected)
        .chain(&delta.refreshed)
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The touched-suffix contract behind touch-restricted reads: every
    /// stored tuple of a changed element lies within the slide's touched
    /// suffix of that topic's list — the touch exists, bounds the tuple's
    /// score from above, and a [`RankedList::suffix_cursor`] started at the
    /// touch height reaches the tuple.
    #[test]
    fn changed_tuples_lie_within_touched_suffixes(p in instance_params()) {
        let StreamInstance { mut engine, stream, .. } = build_stream_instance(&p);
        for (element, tv) in stream {
            let end = element.ts;
            let report = engine.ingest_bucket(vec![(element, tv)], end).unwrap();
            let lists = engine.ranked_lists();
            for id in changed_ids(&report.delta) {
                for t in 0..p.num_topics {
                    let topic = TopicId(t as u32);
                    let Some((score, _)) = lists.list(topic).get(id) else {
                        continue;
                    };
                    let touch = report.delta.ranked.touch(topic);
                    prop_assert!(
                        touch.is_some(),
                        "changed element {id:?} has a tuple in topic {topic:?} \
                         but the slide logged no touch there"
                    );
                    let touch = touch.unwrap();
                    prop_assert!(
                        score <= touch.high + FLOOR_SLACK,
                        "tuple score {score} above touch high {}",
                        touch.high
                    );
                    let mut cursor = lists.list(topic).suffix_cursor(touch.high);
                    let mut found = false;
                    while let Some((cid, cscore, _)) = cursor.current() {
                        if cid == id {
                            prop_assert_eq!(
                                cscore.to_bits(),
                                score.to_bits(),
                                "suffix cursor surfaced a different score for {:?}",
                                id
                            );
                            found = true;
                            break;
                        }
                        cursor.advance();
                    }
                    prop_assert!(
                        found,
                        "suffix cursor from {} never reached changed element {:?}",
                        touch.high,
                        id
                    );
                }
            }
        }
    }
}

/// `(id, score bits, t_e)` of every tuple of one list, in list order.
fn list_image(lists: &RankedLists, topic: TopicId) -> Vec<(ElementId, u64, Timestamp)> {
    let list = lists.list(topic).iter();
    list.map(|(id, score, ts)| (id, score.to_bits(), ts))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// What the skip rule relies on, from the other side: a slide changes
    /// nothing it does not log.  After every slide, a topic with no touch
    /// holds a list bit-identical to its image before the slide, and in a
    /// touched topic every entry above `high + FLOOR_SLACK` is unchanged —
    /// the same entries, in the same order, with the same score bits and
    /// `t_e`.  A recomputed tuple equal to the stored one is no change, so it
    /// may go unlogged only because it leaves the list as it was.
    #[test]
    fn a_slide_changes_no_list_entry_above_its_touches(p in instance_params()) {
        let StreamInstance { mut engine, stream, .. } = build_stream_instance(&p);
        let topics: Vec<TopicId> = (0..p.num_topics as u32).map(TopicId).collect();
        for (element, tv) in stream {
            let end = element.ts;
            let before: Vec<_> =
                topics.iter().map(|&t| list_image(engine.ranked_lists(), t)).collect();
            let report = engine.ingest_bucket(vec![(element, tv)], end).unwrap();
            for (&topic, before) in topics.iter().zip(&before) {
                let after = list_image(engine.ranked_lists(), topic);
                match report.delta.ranked.touch(topic) {
                    None => prop_assert_eq!(&after, before, "untouched {:?} changed", topic),
                    Some(touch) => {
                        let bound = touch.high + FLOOR_SLACK;
                        let above = |image: &[(ElementId, u64, Timestamp)]| {
                            image
                                .iter()
                                .take_while(|&&(_, bits, _)| f64::from_bits(bits) > bound)
                                .copied()
                                .collect::<Vec<_>>()
                        };
                        prop_assert_eq!(
                            above(&after),
                            above(before),
                            "{:?} changed above its touch at {}",
                            topic,
                            touch.high
                        );
                    }
                }
            }
        }
    }
}

/// Everything a [`QueryResult`] carries, with every `f64` as its bits.
type ResultBits = (
    Vec<ElementId>,
    u64,
    usize,
    usize,
    Algorithm,
    Option<(Vec<(TopicId, Option<u64>)>, Option<u64>)>,
);

fn result_bits(result: &QueryResult) -> ResultBits {
    let frontier = result.frontier.as_ref().map(|frontier| {
        let floors = frontier.floors.iter();
        let floors = floors.map(|&(topic, floor)| (topic, floor.map(f64::to_bits)));
        (floors.collect(), frontier.bar.map(f64::to_bits))
    });
    (
        result.elements.clone(),
        result.score.to_bits(),
        result.evaluated_elements,
        result.gain_evaluations,
        result.algorithm,
        frontier,
    )
}

/// A random instance for the one-pass tests: a longer stream than
/// [`instance_params`] draws, so runs at different sizes stop at different
/// depths, and one of `ε ∈ {0.05, 0.1, 0.3}`.
fn per_k_params() -> impl Strategy<Value = (InstanceParams, f64)> {
    (
        any::<u64>(),
        8usize..=40,
        2usize..=4,
        8usize..=16,
        3u64..=40,
        0u8..=10,
        0usize..3,
    )
        .prop_map(
            |(seed, num_elements, num_topics, vocab_size, window_len, lambda_tenths, epsilon)| {
                let params = InstanceParams {
                    seed,
                    num_elements,
                    num_topics,
                    vocab_size,
                    window_len,
                    lambda_tenths,
                    k: 1,
                };
                (params, [0.05, 0.1, 0.3][epsilon])
            },
        )
}

/// Random result sizes for a window of `active` elements: unsorted, with a
/// duplicate, and always holding `k = 1` and a `k` above `active`.
fn random_sizes(rng: &mut StdRng, active: usize) -> Vec<usize> {
    let mut ks: Vec<usize> = (0..rng.gen_range(1..=4))
        .map(|_| rng.gen_range(1..=active + 2))
        .collect();
    ks.push(1);
    ks.push(active + rng.gen_range(1..=3usize));
    ks.push(ks[rng.gen_range(0..ks.len())]);
    for i in (1..ks.len()).rev() {
        ks.swap(i, rng.gen_range(0..=i));
    }
    ks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One pass at many sizes equals one run per size: for every algorithm,
    /// `query_per_k(ks)[i]` is bit for bit `query` at `ks[i]` — elements in
    /// order, score, both work counters, floors and bar — on the live
    /// engine and on an [`EngineSnapshot`].  The query's own `k` plays no
    /// part.
    #[test]
    fn one_pass_equals_one_run_per_size(params in per_k_params()) {
        let (p, epsilon) = params;
        let instance = build_instance(&p);
        let engine = &instance.engine;
        let mut rng = StdRng::seed_from_u64(p.seed ^ 0x9e7_5123);
        let ks = random_sizes(&mut rng, engine.active_count());
        let snapshot = EngineSnapshot::capture(engine, 1);
        // The instance's vector, and one with a zero weight.
        let mut sparse: Vec<f64> = (0..p.num_topics).map(|_| rng.gen::<f64>() + 0.01).collect();
        sparse[rng.gen_range(0..p.num_topics)] = 0.0;
        let vectors = [instance.query_vector.clone(), QueryVector::new(sparse).unwrap()];

        for vector in &vectors {
            let at = |k: usize| {
                KsirQuery::new(k, vector.clone()).unwrap().with_epsilon(epsilon).unwrap()
            };
            let query = at(7);
            for algorithm in Algorithm::ALL {
                let runs = |source: &dyn QuerySource| -> Vec<QueryResult> {
                    ks.iter().map(|&k| source.query(&at(k), algorithm).unwrap()).collect()
                };
                let sources: [(&str, &dyn QuerySource); 2] =
                    [("live", engine), ("engine snapshot", &snapshot)];
                for (name, source) in sources {
                    let single = runs(source);
                    let multi = source.query_per_k(&query, &ks, algorithm).unwrap();
                    prop_assert_eq!(multi.len(), ks.len());
                    for ((k, one), many) in ks.iter().zip(&single).zip(&multi) {
                        prop_assert_eq!(
                            result_bits(many),
                            result_bits(one),
                            "{} {} k={} of {:?} (ε = {})",
                            name,
                            algorithm,
                            k,
                            ks,
                            epsilon
                        );
                    }
                }
            }
        }
    }
}

/// Random traversal frontiers over `num_topics` topics: each support topic
/// watched with a finite floor in `[0, 1)` or as exhausted (`None`).
fn random_frontiers(rng: &mut StdRng, num_topics: usize, count: usize) -> Vec<QueryFrontier> {
    (0..count)
        .map(|_| {
            let mut floors = Vec::new();
            for t in 0..num_topics {
                if !rng.gen_bool(0.8) {
                    continue;
                }
                let floor = if rng.gen_bool(0.75) {
                    Some(rng.gen::<f64>())
                } else {
                    None
                };
                floors.push((TopicId(t as u32), floor));
            }
            QueryFrontier::new(floors)
        })
        .collect()
}
