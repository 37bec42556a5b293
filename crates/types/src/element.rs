//! Social elements and their bag-of-words documents.

use crate::{ElementId, Timestamp, WordId};

/// A bag-of-words document: distinct words with their in-document frequency.
///
/// This matches `e.doc` in the paper — the textual content of an element after
/// tokenisation and stop-word removal.  Word order is not preserved; the
/// semantic score only needs per-word frequencies `γ(w, e)`.
///
/// The words are kept as one run of `(word, frequency)` pairs, strictly
/// ascending by word, every frequency positive.  Every reader walks the
/// document in that order — the semantic score sums its terms in it, so
/// the order fixes the bits — and a run is one allocation, read front to
/// back, where a `BTreeMap` was a node per eleven words with a header each.
/// The archive keeps a document per element ever ingested, so the saving
/// is paid once per element.  The constructors sort once and size the run
/// exactly; a lookup is a binary search.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Document {
    /// `(word, frequency)` per distinct word, strictly ascending by word.
    counts: Vec<(WordId, u32)>,
    /// Total number of tokens (sum of frequencies).
    len: u32,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a document from an iterator of word occurrences (tokens).
    ///
    /// Duplicate words accumulate frequency.
    pub fn from_tokens<I: IntoIterator<Item = WordId>>(tokens: I) -> Self {
        let mut tokens: Vec<WordId> = tokens.into_iter().collect();
        tokens.sort_unstable();
        let distinct = tokens.chunk_by(|a, b| a == b).count();
        let mut counts = Vec::with_capacity(distinct);
        counts.extend(
            tokens
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len() as u32)),
        );
        Document {
            counts,
            len: tokens.len() as u32,
        }
    }

    /// Builds a document from `(word, frequency)` pairs.
    ///
    /// Pairs with zero frequency are ignored; duplicate words accumulate.
    pub fn from_counts<I: IntoIterator<Item = (WordId, u32)>>(counts: I) -> Self {
        let mut counts: Vec<(WordId, u32)> = counts.into_iter().filter(|&(_, c)| c > 0).collect();
        counts.sort_unstable_by_key(|&(w, _)| w);
        counts.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        let len = counts.iter().map(|&(_, c)| c).sum();
        Document {
            // Exact size: a boxed slice has no spare capacity to hand back.
            counts: counts.into_boxed_slice().into_vec(),
            len,
        }
    }

    /// Adds one occurrence of `word`, in place: a new word shifts the run's
    /// tail, so build a whole document with [`Document::from_tokens`].
    pub fn push(&mut self, word: WordId) {
        match self.position(word) {
            Ok(i) => self.counts[i].1 += 1,
            Err(i) => self.counts.insert(i, (word, 1)),
        }
        self.len += 1;
    }

    /// Where `word` sits in the run, or where it would be inserted.
    #[inline]
    fn position(&self, word: WordId) -> Result<usize, usize> {
        self.counts.binary_search_by_key(&word, |&(w, _)| w)
    }

    /// Frequency `γ(w, e)` of `word` in this document (0 if absent).
    #[inline]
    pub fn frequency(&self, word: WordId) -> u32 {
        self.position(word).map_or(0, |i| self.counts[i].1)
    }

    /// Returns `true` if the document contains `word`.
    #[inline]
    pub fn contains(&self, word: WordId) -> bool {
        self.position(word).is_ok()
    }

    /// Number of *distinct* words (`|V_e|` in the paper).
    #[inline]
    pub fn distinct_words(&self) -> usize {
        self.counts.len()
    }

    /// Total number of tokens (document length).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the document has no words.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `(word, frequency)` pairs in ascending word order.
    pub fn iter(&self) -> impl Iterator<Item = (WordId, u32)> + '_ {
        self.counts.iter().copied()
    }

    /// Iterates over the distinct words in ascending order.
    pub fn words(&self) -> impl Iterator<Item = WordId> + '_ {
        self.counts.iter().map(|&(w, _)| w)
    }

    /// Expands the bag back into a token multiset (each word repeated by its
    /// frequency).  Used by topic model trainers that sample per token.
    pub fn tokens(&self) -> Vec<WordId> {
        let mut out = Vec::with_capacity(self.len());
        for (w, c) in self.iter() {
            for _ in 0..c {
                out.push(w);
            }
        }
        out
    }
}

impl FromIterator<WordId> for Document {
    fn from_iter<T: IntoIterator<Item = WordId>>(iter: T) -> Self {
        Document::from_tokens(iter)
    }
}

/// A social element `⟨ts, doc, ref⟩`: one item of a social stream.
///
/// Examples of elements are tweets (references = retweet / hashtag-propagation
/// parents), academic papers (references = citations) and Reddit comments
/// (references = parent submissions).  If an element is entirely original its
/// reference list is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct SocialElement {
    /// Unique id of this element within the stream.
    pub id: ElementId,
    /// Posting time.
    pub ts: Timestamp,
    /// Bag-of-words content after preprocessing.
    pub doc: Document,
    /// Elements this element refers to (must have strictly earlier timestamps).
    pub refs: Vec<ElementId>,
}

impl SocialElement {
    /// Creates a new element.  References are deduplicated and self-references
    /// are removed so downstream influence computations never double count.
    pub fn new(id: ElementId, ts: Timestamp, doc: Document, mut refs: Vec<ElementId>) -> Self {
        refs.sort_unstable();
        refs.dedup();
        refs.retain(|&r| r != id);
        SocialElement { id, ts, doc, refs }
    }

    /// Creates an element with no references (an "original" post).
    pub fn original(id: ElementId, ts: Timestamp, doc: Document) -> Self {
        SocialElement::new(id, ts, doc, Vec::new())
    }

    /// Returns `true` if this element references `other`.
    pub fn references(&self, other: ElementId) -> bool {
        self.refs.binary_search(&other).is_ok()
    }

    /// Number of references (out-degree in the influence graph).
    pub fn reference_count(&self) -> usize {
        self.refs.len()
    }
}

/// Builder for [`SocialElement`], convenient in tests and examples.
#[derive(Debug, Default)]
pub struct SocialElementBuilder {
    id: u64,
    ts: u64,
    tokens: Vec<WordId>,
    refs: Vec<ElementId>,
}

impl SocialElementBuilder {
    /// Starts building an element with the given id.
    pub fn new(id: u64) -> Self {
        SocialElementBuilder {
            id,
            ..Default::default()
        }
    }

    /// Sets the posting timestamp.
    pub fn at(mut self, ts: u64) -> Self {
        self.ts = ts;
        self
    }

    /// Adds one word occurrence.
    pub fn word(mut self, w: u32) -> Self {
        self.tokens.push(WordId(w));
        self
    }

    /// Adds several word occurrences.
    pub fn words<I: IntoIterator<Item = u32>>(mut self, ws: I) -> Self {
        self.tokens.extend(ws.into_iter().map(WordId));
        self
    }

    /// Adds a reference to an earlier element.
    pub fn referencing(mut self, id: u64) -> Self {
        self.refs.push(ElementId(id));
        self
    }

    /// Finalises the element.
    pub fn build(self) -> SocialElement {
        SocialElement::new(
            ElementId(self.id),
            Timestamp(self.ts),
            Document::from_tokens(self.tokens),
            self.refs,
        )
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use rand::Rng;

    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn document_counts_frequencies() {
        let doc = Document::from_tokens([WordId(1), WordId(2), WordId(1), WordId(3)]);
        assert_eq!(doc.frequency(WordId(1)), 2);
        assert_eq!(doc.frequency(WordId(2)), 1);
        assert_eq!(doc.frequency(WordId(9)), 0);
        assert_eq!(doc.distinct_words(), 3);
        assert_eq!(doc.len(), 4);
        assert!(!doc.is_empty());
        assert!(doc.contains(WordId(3)));
        assert!(!doc.contains(WordId(4)));
    }

    #[test]
    fn document_from_counts_skips_zero() {
        let doc = Document::from_counts([(WordId(1), 2), (WordId(2), 0), (WordId(1), 1)]);
        assert_eq!(doc.frequency(WordId(1)), 3);
        assert_eq!(doc.distinct_words(), 1);
        assert_eq!(doc.len(), 3);
    }

    #[test]
    fn document_tokens_roundtrip() {
        let doc = Document::from_tokens([WordId(5), WordId(5), WordId(2)]);
        let tokens = doc.tokens();
        assert_eq!(tokens, vec![WordId(2), WordId(5), WordId(5)]);
        let doc2 = Document::from_tokens(tokens);
        assert_eq!(doc, doc2);
    }

    #[test]
    fn empty_document() {
        let doc = Document::new();
        assert!(doc.is_empty());
        assert_eq!(doc.len(), 0);
        assert_eq!(doc.distinct_words(), 0);
        assert!(doc.tokens().is_empty());
    }

    #[test]
    fn element_dedups_and_drops_self_references() {
        let e = SocialElement::new(
            ElementId(5),
            Timestamp(10),
            Document::new(),
            vec![ElementId(3), ElementId(5), ElementId(3), ElementId(1)],
        );
        assert_eq!(e.refs, vec![ElementId(1), ElementId(3)]);
        assert!(e.references(ElementId(3)));
        assert!(!e.references(ElementId(5)));
        assert_eq!(e.reference_count(), 2);
    }

    #[test]
    fn builder_produces_expected_element() {
        let e = SocialElementBuilder::new(7)
            .at(42)
            .words([1, 2, 2])
            .referencing(3)
            .referencing(4)
            .build();
        assert_eq!(e.id, ElementId(7));
        assert_eq!(e.ts, Timestamp(42));
        assert_eq!(e.doc.frequency(WordId(2)), 2);
        assert_eq!(e.refs, vec![ElementId(3), ElementId(4)]);
    }

    #[test]
    fn original_element_has_no_refs() {
        let e = SocialElement::original(ElementId(1), Timestamp(0), Document::new());
        assert!(e.refs.is_empty());
    }

    /// Every observation of `doc` equals the same observation of the
    /// `BTreeMap` the run replaced, over words `0..=vocab`.
    fn assert_matches(doc: &Document, reference: &BTreeMap<WordId, u32>, vocab: u32) {
        let pairs: Vec<(WordId, u32)> = reference.iter().map(|(&w, &c)| (w, c)).collect();
        assert_eq!(doc.iter().collect::<Vec<_>>(), pairs);
        assert_eq!(
            doc.words().collect::<Vec<_>>(),
            reference.keys().copied().collect::<Vec<_>>()
        );
        for w in (0..=vocab).map(WordId) {
            assert_eq!(doc.frequency(w), reference.get(&w).copied().unwrap_or(0));
            assert_eq!(doc.contains(w), reference.contains_key(&w));
        }
        let tokens: Vec<WordId> = pairs
            .iter()
            .flat_map(|&(w, c)| std::iter::repeat_n(w, c as usize))
            .collect();
        assert_eq!(doc.len(), tokens.len());
        assert_eq!(doc.distinct_words(), reference.len());
        assert_eq!(doc.is_empty(), reference.is_empty());
        assert_eq!(doc.tokens(), tokens);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn every_constructor_agrees_with_a_btreemap_reference(
            params in (any::<u64>(), 1u32..=12, 0usize..=40)
        ) {
            let (seed, vocab, n) = params;
            let mut rng = seeded_rng(seed);
            // A small vocabulary, so words repeat; counts of 0 are dropped.
            let tokens: Vec<WordId> = (0..n).map(|_| WordId(rng.gen_range(0..vocab))).collect();
            let counts: Vec<(WordId, u32)> = (0..n)
                .map(|_| (WordId(rng.gen_range(0..vocab)), rng.gen_range(0..4u32)))
                .collect();

            let mut by_token = BTreeMap::new();
            for &w in &tokens {
                *by_token.entry(w).or_insert(0) += 1;
            }
            let mut by_count = BTreeMap::new();
            for &(w, c) in counts.iter().filter(|&&(_, c)| c > 0) {
                *by_count.entry(w).or_insert(0) += c;
            }

            let from_tokens = Document::from_tokens(tokens.iter().copied());
            let mut pushed = Document::new();
            for &w in &tokens {
                pushed.push(w);
            }
            let from_counts = Document::from_counts(counts.iter().copied());
            assert_matches(&from_tokens, &by_token, vocab);
            assert_matches(&pushed, &by_token, vocab);
            assert_matches(&from_counts, &by_count, vocab);
            prop_assert_eq!(&pushed, &from_tokens);
            prop_assert_eq!(
                Document::from_counts(by_token.iter().map(|(&w, &c)| (w, c))),
                from_tokens.clone()
            );
            prop_assert_eq!(from_tokens == from_counts, by_token == by_count);
            // The constructors leave no growth slack in the run.
            prop_assert_eq!(from_tokens.counts.capacity(), from_tokens.counts.len());
            prop_assert_eq!(from_counts.counts.capacity(), from_counts.counts.len());
        }
    }
}
