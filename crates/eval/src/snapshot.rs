//! Building evaluation snapshots from a running engine.

use ksir_baselines::{SearchItem, SearchPool};
use ksir_core::KsirEngine;
use ksir_types::TopicWordDistribution;

/// Snapshots the engine's active window into a [`SearchPool`].
///
/// Every effectiveness method (the k-SIR query and all four baselines) is
/// evaluated against the same candidate set — the active elements at query
/// time — so that Table 5/6 comparisons are apples-to-apples.  The per-item
/// `referenced_by` count is the *in-window* reference count, matching the
/// time-critical influence semantics of the paper.
pub fn pool_from_engine<D: TopicWordDistribution>(engine: &KsirEngine<D>) -> SearchPool {
    engine
        .active_ids()
        .into_iter()
        .filter_map(|id| {
            let element = engine.element(id)?;
            Some(SearchItem {
                id,
                doc: element.doc.clone(),
                topic_vector: engine.topic_vector(id)?,
                refs: element.refs.clone(),
                referenced_by: engine.window().influence_count(id),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_core::fixtures::paper_example;
    use ksir_types::ElementId;

    #[test]
    fn snapshot_mirrors_the_active_window() {
        let ex = paper_example();
        let engine = ex.build_engine();
        let pool = pool_from_engine(&engine);
        assert_eq!(pool.len(), engine.active_count());
        assert!(
            pool.get(ElementId(4)).is_none(),
            "expired elements excluded"
        );
        // e3 is referenced by e6 and e8 inside the window at t = 8.
        assert_eq!(pool.get(ElementId(3)).unwrap().referenced_by, 2);
        // e8 carries its outgoing references.
        assert_eq!(pool.get(ElementId(8)).unwrap().refs.len(), 3);
        // topic vectors travel with the items
        assert_eq!(pool.get(ElementId(1)).unwrap().topic_vector.num_topics(), 2);
    }
}
