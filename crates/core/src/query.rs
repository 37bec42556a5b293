//! Query and result types for k-SIR processing.

use crate::stream::RankedDelta;
use ksir_types::{ElementId, KsirError, QueryVector, Result, TopicId};

/// A k-SIR query `q_t(k, x)`: retrieve at most `k` active elements maximising
/// the representativeness score w.r.t. the query vector `x`.
///
/// The `ε` parameter controls the approximation/efficiency trade-off of the
/// MTTS and MTTD algorithms (and of the SieveStreaming baseline); it is
/// ignored by CELF and Top-k Representative.
#[derive(Debug, Clone, PartialEq)]
pub struct KsirQuery {
    k: usize,
    vector: QueryVector,
    epsilon: f64,
}

impl KsirQuery {
    /// Default `ε` used when none is given (the paper's default setting).
    pub const DEFAULT_EPSILON: f64 = 0.1;

    /// Creates a query with the default `ε = 0.1`.
    pub fn new(k: usize, vector: QueryVector) -> Result<Self> {
        if k == 0 {
            return Err(KsirError::invalid_parameter(
                "k",
                "a k-SIR query must request at least one element",
            ));
        }
        Ok(KsirQuery {
            k,
            vector,
            epsilon: Self::DEFAULT_EPSILON,
        })
    }

    /// Overrides the approximation parameter `ε ∈ (0, 1)`.
    pub fn with_epsilon(mut self, epsilon: f64) -> Result<Self> {
        if !epsilon.is_finite() || epsilon <= 0.0 || epsilon >= 1.0 {
            return Err(KsirError::invalid_parameter(
                "epsilon",
                format!("must be in the open interval (0, 1), got {epsilon}"),
            ));
        }
        self.epsilon = epsilon;
        Ok(self)
    }

    /// The result-size bound `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The query vector `x`.
    #[inline]
    pub fn vector(&self) -> &QueryVector {
        &self.vector
    }

    /// The approximation parameter `ε`.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Returns `true` if `other` runs the *same evaluation plan* as `self`
    /// modulo the result-size bound `k`: identical query vector (bitwise) and
    /// identical `ε`.
    ///
    /// Two plan-compatible queries traverse the same ranked lists with the
    /// same per-topic weights and the same threshold grid/descent schedule,
    /// so a single covering run at the larger `k` retrieves and scores a
    /// superset of what either query alone would — the property subscription
    /// clustering in `ksir-continuous` relies on.  A *result* must not be
    /// shared across `k`: the MTTS threshold grid and the MTTD/Top-k
    /// admission bars all depend on it.  One traversal can still serve every
    /// member `k` exactly by applying each size's own rules
    /// ([`QuerySource::query_per_k`](crate::QuerySource::query_per_k)).
    pub fn plan_compatible(&self, other: &KsirQuery) -> bool {
        self.epsilon.to_bits() == other.epsilon.to_bits()
            && self.vector.num_topics() == other.vector.num_topics()
            && self.vector.support().len() == other.vector.support().len()
            && self
                .vector
                .support()
                .iter()
                .zip(other.vector.support())
                .all(|(&(ta, wa), (tb, wb))| ta == tb && wa.to_bits() == wb.to_bits())
    }

    /// Builds the **covering query** of a cluster of plan-compatible queries:
    /// the same vector and `ε` with `k = max` over the members, so one run of
    /// the covering query reads at least as deep into every ranked list as
    /// any member's own run would.
    ///
    /// Errors if the iterator is empty or any two members are not
    /// [`KsirQuery::plan_compatible`].
    pub fn covering<'a, I>(members: I) -> Result<KsirQuery>
    where
        I: IntoIterator<Item = &'a KsirQuery>,
    {
        let mut members = members.into_iter();
        let Some(first) = members.next() else {
            return Err(KsirError::invalid_parameter(
                "members",
                "a covering query needs at least one member",
            ));
        };
        let mut covering = first.clone();
        for member in members {
            if !covering.plan_compatible(member) {
                return Err(KsirError::invalid_parameter(
                    "members",
                    "covering queries require plan-compatible members \
                     (same vector and epsilon)",
                ));
            }
            covering.k = covering.k.max(member.k);
        }
        Ok(covering)
    }
}

/// The algorithm used to process a k-SIR query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Multi-Topic ThresholdStream (Algorithm 2): `(1/2 − ε)`-approximate,
    /// evaluates each active element at most once.
    Mtts,
    /// Multi-Topic ThresholdDescend (Algorithm 3): `(1 − 1/e − ε)`-approximate,
    /// may re-evaluate buffered elements across rounds.
    Mttd,
    /// CELF lazy greedy (batch baseline): `(1 − 1/e)`-approximate but
    /// evaluates every active element.
    Celf,
    /// SieveStreaming (streaming baseline): `(1/2 − ε)`-approximate,
    /// evaluates every active element.
    SieveStreaming,
    /// Top-k elements by singleton representativeness score (index baseline):
    /// only `1/k`-approximate because word/influence overlaps are ignored.
    TopkRepresentative,
}

impl Algorithm {
    /// All algorithms, in the order used by the experiment harness.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Celf,
        Algorithm::Mttd,
        Algorithm::Mtts,
        Algorithm::TopkRepresentative,
        Algorithm::SieveStreaming,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Mtts => "MTTS",
            Algorithm::Mttd => "MTTD",
            Algorithm::Celf => "CELF",
            Algorithm::SieveStreaming => "SieveStreaming",
            Algorithm::TopkRepresentative => "Top-k Representative",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How deep into each support topic's ranked list a query traversal reached.
///
/// For every topic in the query support this records the score of the first
/// tuple the traversal did **not** read — `None` when the list was exhausted.
/// The traversal's behaviour depends only on the tuples at or above these
/// floors: a later index mutation whose touch score (see
/// [`stream`](crate::stream)) stays strictly below every floor cannot change
/// what the same query would retrieve, evaluate, or return.  This is the
/// invariant the `ksir-continuous` subscription manager uses to skip
/// refreshing standing queries.
///
/// # Example
///
/// ```
/// use ksir_core::QueryFrontier;
/// use ksir_core::stream::RankedDelta;
/// use ksir_types::TopicId;
///
/// // A traversal that read topic 0 down to score 0.5 and drained topic 1.
/// let frontier = QueryFrontier::new(vec![(TopicId(0), Some(0.5)), (TopicId(1), None)]);
///
/// // A slide whose highest touch on topic 0 stays below the floor is
/// // invisible to the traversal; a touch at or above it is not.
/// let mut below = RankedDelta::new(2);
/// below.record(TopicId(0), 0.3);
/// assert!(!frontier.disturbed_by(&below));
///
/// let mut above = RankedDelta::new(2);
/// above.record(TopicId(0), 0.7);
/// assert!(frontier.disturbed_by(&above));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFrontier {
    /// `(topic, first-unread score)` per support topic; `None` = exhausted.
    pub floors: Vec<(TopicId, Option<f64>)>,
    /// The admission bar of the run that produced this frontier: the smallest
    /// singleton score `δ(e, x)` at which an additional element could still
    /// have entered the result — MTTS's final minimum unfilled threshold,
    /// MTTD's threshold `τ` when the result filled (or its final `τ_min`),
    /// the k-th best singleton score for Top-k Representative.  `None` when
    /// the run gave no such bound (e.g. an empty index).
    ///
    /// The bar is a *per-query* tightening hint on top of the floors: a
    /// candidate whose weighted singleton score cannot reach the bar can
    /// never displace a result member.  It is **not** used for skip
    /// decisions — skips rely on the floors alone.
    pub bar: Option<f64>,
}

impl QueryFrontier {
    /// A frontier with the given per-topic floors and no admission bar.
    pub fn new(floors: Vec<(TopicId, Option<f64>)>) -> Self {
        QueryFrontier { floors, bar: None }
    }

    /// Attaches the admission bar of the run that produced this frontier.
    pub fn with_bar(mut self, bar: f64) -> Self {
        self.bar = Some(bar);
        self
    }
    /// Returns `true` if the given slide delta could have changed the result
    /// of the traversal that produced this frontier: some support topic was
    /// touched at or above its floor (an exhausted list is "touched" by any
    /// mutation at all).
    pub fn disturbed_by(&self, delta: &RankedDelta) -> bool {
        self.floors
            .iter()
            .any(|&(topic, floor)| match (delta.touch(topic), floor) {
                (None, _) => false,
                (Some(_), None) => true,
                (Some(touch), Some(floor)) => touch.high >= floor - crate::stream::FLOOR_SLACK,
            })
    }
}

/// The result of processing one k-SIR query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Selected elements, in the order they were added to the result set.
    pub elements: Vec<ElementId>,
    /// Representativeness score `f(S, x)` of the result set.
    pub score: f64,
    /// Number of *distinct* active elements whose score or marginal gain was
    /// evaluated (the quantity behind Figure 10 of the paper).
    pub evaluated_elements: usize,
    /// Total number of marginal-gain / singleton-score evaluations of the
    /// submodular function (an element may be evaluated several times).
    pub gain_evaluations: usize,
    /// Algorithm that produced the result.
    pub algorithm: Algorithm,
    /// Ranked-list traversal floors, for the index-based algorithms (MTTS,
    /// MTTD, Top-k Representative); `None` for the exhaustive baselines,
    /// whose results can be invalidated by any index change.
    pub frontier: Option<QueryFrontier>,
}

impl QueryResult {
    /// An empty result (used when no active element is relevant to the query).
    pub fn empty(algorithm: Algorithm) -> Self {
        QueryResult {
            elements: Vec::new(),
            score: 0.0,
            evaluated_elements: 0,
            gain_evaluations: 0,
            algorithm,
            frontier: None,
        }
    }

    /// Number of selected elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if no element was selected.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Returns `true` if the result contains `id`.
    pub fn contains(&self, id: ElementId) -> bool {
        self.elements.contains(&id)
    }

    /// The selected elements as a sorted vector (convenient for comparisons in
    /// tests, where selection order is irrelevant).
    pub fn sorted_elements(&self) -> Vec<ElementId> {
        let mut v = self.elements.clone();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn query_vector() -> QueryVector {
        QueryVector::new(vec![0.5, 0.5]).unwrap()
    }

    #[test]
    fn query_validation() {
        assert!(KsirQuery::new(0, query_vector()).is_err());
        let q = KsirQuery::new(5, query_vector()).unwrap();
        assert_eq!(q.k(), 5);
        assert_eq!(q.epsilon(), KsirQuery::DEFAULT_EPSILON);
        assert!(q.clone().with_epsilon(0.0).is_err());
        assert!(q.clone().with_epsilon(1.0).is_err());
        assert!(q.clone().with_epsilon(f64::NAN).is_err());
        let q = q.with_epsilon(0.3).unwrap();
        assert_eq!(q.epsilon(), 0.3);
    }

    #[test]
    fn covering_query_takes_max_k_over_compatible_members() {
        let a = KsirQuery::new(3, query_vector()).unwrap();
        let b = KsirQuery::new(7, query_vector()).unwrap();
        let c = KsirQuery::new(5, query_vector()).unwrap();
        assert!(a.plan_compatible(&b));
        let covering = KsirQuery::covering([&a, &b, &c]).unwrap();
        assert_eq!(covering.k(), 7);
        assert_eq!(covering.vector(), a.vector());
        assert_eq!(covering.epsilon(), a.epsilon());
        // Empty clusters and incompatible members are rejected.
        assert!(KsirQuery::covering(std::iter::empty::<&KsirQuery>()).is_err());
        let other_vector = KsirQuery::new(3, QueryVector::new(vec![1.0, 0.0]).unwrap()).unwrap();
        assert!(!a.plan_compatible(&other_vector));
        assert!(KsirQuery::covering([&a, &other_vector]).is_err());
        let other_eps = KsirQuery::new(3, query_vector())
            .unwrap()
            .with_epsilon(0.2)
            .unwrap();
        assert!(!a.plan_compatible(&other_eps));
        assert!(KsirQuery::covering([&a, &other_eps]).is_err());
    }

    #[test]
    fn algorithm_names_and_display() {
        assert_eq!(Algorithm::Mtts.name(), "MTTS");
        assert_eq!(Algorithm::Mttd.to_string(), "MTTD");
        assert_eq!(Algorithm::ALL.len(), 5);
    }

    #[test]
    fn frontier_disturbance_rules() {
        let frontier = QueryFrontier::new(vec![(TopicId(0), Some(0.5)), (TopicId(1), None)]);
        // Untouched index: undisturbed.
        let clean = RankedDelta::new(3);
        assert!(!frontier.disturbed_by(&clean));
        // Touch strictly below the floor of a non-exhausted list: invisible.
        let mut below = RankedDelta::new(3);
        below.record(TopicId(0), 0.3);
        assert!(!frontier.disturbed_by(&below));
        // Touch at/above the floor: disturbed.
        let mut at = RankedDelta::new(3);
        at.record(TopicId(0), 0.5);
        assert!(frontier.disturbed_by(&at));
        // Any touch on an exhausted list: disturbed.
        let mut exhausted = RankedDelta::new(3);
        exhausted.record(TopicId(1), 1e-9);
        assert!(frontier.disturbed_by(&exhausted));
        // Touches outside the support are ignored.
        let mut outside = RankedDelta::new(3);
        outside.record(TopicId(2), 10.0);
        assert!(!frontier.disturbed_by(&outside));
    }

    #[test]
    fn result_helpers() {
        let r = QueryResult {
            elements: vec![ElementId(3), ElementId(1)],
            score: 0.65,
            evaluated_elements: 4,
            gain_evaluations: 9,
            algorithm: Algorithm::Mtts,
            frontier: None,
        };
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert!(r.contains(ElementId(1)));
        assert!(!r.contains(ElementId(2)));
        assert_eq!(r.sorted_elements(), vec![ElementId(1), ElementId(3)]);
        let e = QueryResult::empty(Algorithm::Celf);
        assert!(e.is_empty());
        assert_eq!(e.score, 0.0);
    }
}
