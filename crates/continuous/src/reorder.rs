//! Bounded, watermark-driven re-sequencing of out-of-order bucket arrival.
//!
//! The engine's ingestion API is strict about time: a bucket whose end
//! precedes the window's `now` is a
//! [`TimestampRegression`](ksir_types::KsirError::TimestampRegression).  A
//! hostile stream — replicated collectors, partitioned transports, replayed
//! backlogs — delivers buckets *out of order* anyway.  The crate-private
//! `ReorderBuffer`
//! sits in front of
//! [`SubscriptionManager::ingest_bucket_reordered`](crate::SubscriptionManager::ingest_bucket_reordered)
//! and re-sequences arrivals within a bounded **horizon** before they reach
//! the engine:
//!
//! * Each offered bucket is keyed by its end timestamp; buckets sharing an
//!   end merge.  Whenever more than `horizon` distinct
//!   bucket ends are buffered, the **earliest** is released.  A bucket that
//!   arrives at most `horizon` positions after its in-order slot therefore
//!   always leaves the buffer in sorted position — released output is
//!   non-decreasing in bucket end (the classic size-`h+1` buffer argument:
//!   when the minimum is released, every bucket that belongs before it has
//!   already arrived and been released).  This is the **reorder-buffer
//!   invariant** the property tests pin: any arrival permutation with
//!   displacement ≤ horizon yields an ingest sequence — and therefore
//!   refresh decisions — bit-identical to in-order replay.
//! * A bucket whose end is at or before the release watermark
//!   (`released_through`) arrived **too late** to
//!   re-sequence.  It is shed whole — counted, never silently lost.
//!   Charging its elements to a later slide than their timestamps would
//!   break the window semantics `W_t = {e : ts ∈ (t − T, t]}` that every
//!   result is a function of.
//!
//! The buffer is a pure data structure; the manager owns the accounting
//! (`ManagerStats::reordered` / `ManagerStats::late_dropped`, the
//! `ingest.reordered` / `ingest.late_dropped` registry counters, and the
//! `late_bucket_dropped` trace event).

use std::collections::BTreeMap;

use ksir_types::{SocialElement, Timestamp, TopicVector};

/// One bucket as the reorder layer moves it around: its elements and its
/// end timestamp.
pub(crate) type Bucket = (Vec<(SocialElement, TopicVector)>, Timestamp);

/// Outcome of offering one bucket to the buffer: zero or more released
/// (in-order) buckets plus the accounting of what happened to the arrival.
#[derive(Debug, Default)]
pub(crate) struct OfferOutcome {
    /// Buckets released in ingest order (non-decreasing ends).
    pub(crate) released: Vec<Bucket>,
    /// `true` when the offered bucket arrived out of order but within the
    /// horizon (it was buffered behind a later-ended bucket already seen).
    pub(crate) reordered: bool,
    /// Elements of a shed beyond-horizon bucket (`None` when the bucket
    /// was not late).
    pub(crate) dropped: Option<usize>,
}

/// The bounded re-sequencing buffer.  See the module docs for the invariant.
#[derive(Debug)]
pub(crate) struct ReorderBuffer {
    horizon: usize,
    /// Buffered buckets, keyed (and merged) by end timestamp.
    pending: BTreeMap<Timestamp, Vec<(SocialElement, TopicVector)>>,
    /// End timestamp of the last released bucket — the release watermark.
    /// Arrivals at or before it are late.
    released_through: Option<Timestamp>,
    /// Highest bucket end ever offered; an in-horizon arrival below it is a
    /// reorder.
    highest_offered: Option<Timestamp>,
}

impl ReorderBuffer {
    pub(crate) fn new(horizon: usize) -> Self {
        ReorderBuffer {
            horizon,
            pending: BTreeMap::new(),
            released_through: None,
            highest_offered: None,
        }
    }

    /// The release watermark: arrivals whose end is `≤` this are late.
    pub(crate) fn released_through(&self) -> Option<Timestamp> {
        self.released_through
    }

    /// Distinct bucket ends currently buffered.
    pub(crate) fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Offers one arrival.  Releases the earliest buffered buckets until at
    /// most `horizon` remain; a horizon of 0 is a pass-through that still
    /// sheds regressions instead of letting them reach the engine as errors.
    pub(crate) fn offer(
        &mut self,
        bucket: Vec<(SocialElement, TopicVector)>,
        bucket_end: Timestamp,
    ) -> OfferOutcome {
        let mut outcome = OfferOutcome::default();
        if self
            .released_through
            .is_some_and(|through| bucket_end <= through)
        {
            outcome.dropped = Some(bucket.len());
            return outcome;
        }
        outcome.reordered = self
            .highest_offered
            .is_some_and(|highest| bucket_end < highest);
        if self.highest_offered.is_none_or(|h| bucket_end > h) {
            self.highest_offered = Some(bucket_end);
        }
        self.pending.entry(bucket_end).or_default().extend(bucket);
        while self.pending.len() > self.horizon {
            let (end, elements) = self
                .pending
                .pop_first()
                .expect("len > horizon ≥ 0 ⇒ non-empty");
            outcome.released.push(self.release(elements, end));
        }
        outcome
    }

    /// Releases everything still buffered, in order.
    pub(crate) fn flush(&mut self) -> Vec<Bucket> {
        let mut released = Vec::new();
        while let Some((end, elements)) = self.pending.pop_first() {
            released.push(self.release(elements, end));
        }
        released
    }

    fn release(&mut self, elements: Vec<(SocialElement, TopicVector)>, end: Timestamp) -> Bucket {
        self.released_through = Some(end);
        (elements, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_types::{Document, ElementId};

    fn bucket(end: u64, n: usize) -> (Vec<(SocialElement, TopicVector)>, Timestamp) {
        let elements = (0..n)
            .map(|i| {
                (
                    SocialElement::original(
                        ElementId(end * 100 + i as u64),
                        Timestamp(end),
                        Document::new(),
                    ),
                    TopicVector::from_values(vec![1.0]).unwrap(),
                )
            })
            .collect();
        (elements, Timestamp(end))
    }

    fn ends(released: &[Bucket]) -> Vec<u64> {
        released.iter().map(|(_, end)| end.0).collect()
    }

    #[test]
    fn in_order_stream_passes_through_in_order() {
        let mut buf = ReorderBuffer::new(2);
        let mut out = Vec::new();
        for end in 1..=5 {
            let (elements, end) = bucket(end, 1);
            let outcome = buf.offer(elements, end);
            assert!(!outcome.reordered);
            assert!(outcome.dropped.is_none());
            out.extend(outcome.released);
        }
        out.extend(buf.flush());
        assert_eq!(ends(&out), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn bounded_displacement_is_fully_resequenced() {
        // Displacement ≤ 2 everywhere: a horizon-2 buffer must emit sorted.
        let arrival = [2u64, 1, 4, 3, 6, 5, 7];
        let mut buf = ReorderBuffer::new(2);
        let mut out = Vec::new();
        let mut reorders = 0;
        for end in arrival {
            let (elements, end) = bucket(end, 1);
            let outcome = buf.offer(elements, end);
            reorders += outcome.reordered as usize;
            assert!(outcome.dropped.is_none(), "nothing is late at horizon 2");
            out.extend(outcome.released);
        }
        out.extend(buf.flush());
        assert_eq!(ends(&out), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(reorders, 3, "1, 3 and 5 each arrived behind a later end");
    }

    #[test]
    fn beyond_horizon_arrival_is_dropped_and_counted() {
        let mut buf = ReorderBuffer::new(1);
        let mut out = Vec::new();
        for end in [1u64, 2, 3] {
            let (elements, end) = bucket(end, 1);
            out.extend(buf.offer(elements, end).released);
        }
        // Ends 1 and 2 have been released (horizon 1 keeps only one pending);
        // an arrival at 1 is now beyond the horizon.
        assert_eq!(buf.released_through(), Some(Timestamp(2)));
        let (elements, end) = bucket(1, 3);
        let outcome = buf.offer(elements, end);
        assert_eq!(outcome.dropped, Some(3));
        assert!(outcome.released.is_empty());
        out.extend(buf.flush());
        assert_eq!(ends(&out), vec![1, 2, 3]);
    }

    #[test]
    fn duplicate_ends_merge_into_one_bucket() {
        let mut buf = ReorderBuffer::new(2);
        let (a, end) = bucket(1, 1);
        buf.offer(a, end);
        let (b, end) = bucket(1, 2);
        let outcome = buf.offer(b, end);
        assert!(!outcome.reordered, "same end is not a reorder");
        assert_eq!(buf.buffered(), 1);
        let released = buf.flush();
        assert_eq!(ends(&released), vec![1]);
        assert_eq!(released[0].0.len(), 3);
    }
}
