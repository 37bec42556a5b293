//! Grouping an ordered element stream into fixed-length buckets.

use ksir_types::{Result, SocialElement, Timestamp};

/// Cuts a timestamp-ordered stream of `(element, payload)` pairs into
/// buckets of length `bucket_len` ending at multiples of `L`, invoking `f`
/// once per bucket with its contents and end time.
///
/// The first bucket ends at the first multiple of `L` at or after
/// `max(now, L)`, so a consumer already advanced to logical time `now` keeps
/// its cadence.  Intermediate empty buckets are emitted (as empty vectors) so
/// the window slides through silent periods; a trailing partial bucket is
/// flushed at the end.  Returns the number of buckets emitted.
///
/// This is the single definition of the stream-replay convention shared by
/// `KsirEngine::ingest_stream`, the standing-query manager and the replay
/// benchmarks — keep them on this helper so the bucket-boundary contract
/// cannot drift between them.
pub fn for_each_bucket<P, I, F>(
    bucket_len: u64,
    now: Timestamp,
    stream: I,
    mut f: F,
) -> Result<usize>
where
    I: IntoIterator<Item = (SocialElement, P)>,
    F: FnMut(Vec<(SocialElement, P)>, Timestamp) -> Result<()>,
{
    let mut current_end = Timestamp(now.raw().max(bucket_len));
    if !current_end.raw().is_multiple_of(bucket_len) {
        current_end = Timestamp(current_end.raw().div_ceil(bucket_len) * bucket_len);
    }
    let mut pending: Vec<(SocialElement, P)> = Vec::new();
    let mut buckets = 0;
    for (element, payload) in stream {
        while element.ts > current_end {
            f(std::mem::take(&mut pending), current_end)?;
            buckets += 1;
            current_end = Timestamp(current_end.raw() + bucket_len);
        }
        pending.push((element, payload));
    }
    if !pending.is_empty() {
        f(pending, current_end)?;
        buckets += 1;
    }
    Ok(buckets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksir_types::{Document, ElementId, KsirError};

    fn elem(id: u64, ts: u64) -> SocialElement {
        SocialElement::original(ElementId(id), Timestamp(ts), Document::new())
    }

    #[test]
    fn for_each_bucket_matches_engine_replay_convention() {
        let pairs: Vec<(SocialElement, u32)> = [1u64, 4, 6, 18, 21]
            .iter()
            .map(|&ts| (elem(ts, ts), ts as u32))
            .collect();
        let mut seen: Vec<(usize, u64)> = Vec::new();
        let buckets = for_each_bucket(5, Timestamp::ZERO, pairs, |bucket, end| {
            seen.push((bucket.len(), end.raw()));
            Ok(())
        })
        .unwrap();
        // Buckets end at 5, 10, 15, 20 (10 and 15 empty), final flush at 25.
        assert_eq!(buckets, 5);
        assert_eq!(seen, vec![(2, 5), (1, 10), (0, 15), (1, 20), (1, 25)]);
    }

    #[test]
    fn for_each_bucket_resumes_from_advanced_now() {
        // A consumer already at t = 7 with L = 5 starts at the next multiple
        // of L, i.e. 10.
        let pairs = vec![(elem(1, 8), ()), (elem(2, 12), ())];
        let mut ends = Vec::new();
        for_each_bucket(5, Timestamp(7), pairs, |_, end| {
            ends.push(end.raw());
            Ok(())
        })
        .unwrap();
        assert_eq!(ends, vec![10, 15]);
    }

    #[test]
    fn for_each_bucket_propagates_errors() {
        let pairs = vec![(elem(1, 1), ()), (elem(2, 9), ())];
        let err = for_each_bucket(5, Timestamp::ZERO, pairs, |_, _| {
            Err(KsirError::invalid_parameter("test", "boom"))
        })
        .unwrap_err();
        assert!(matches!(err, KsirError::InvalidParameter { .. }));
    }
}
