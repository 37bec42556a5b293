//! What an engine holds grows neither with the number of topics `z` nor with
//! the length of the stream, and an element costs no more than it did before
//! its row kept the word weights.
//!
//! The engine keeps one sparse row per active element — `p_i(e)`, the
//! `σ_i(w, e)` column and `R_i(e)` on the topics the element is about — and
//! nothing `z`-wide per element.  The same Twitter-shaped stream replayed at
//! `z = 50` and, zero-padded, at `z = 200` must therefore leave two engines
//! of the same size.  Under a bounded archive, an engine that has seen
//! twenty windows of a steady stream holds what one that has seen five
//! does: expired elements leave, and their slots in the window and the rows
//! are handed to new arrivals.  Under an unbounded one, every element ever
//! ingested keeps its payload and its row, columns included; the bytes per
//! ingested element are pinned against their figure from before the
//! columns.
//!
//! Sizes are read off a counting global allocator: an engine's heap is the
//! live bytes just before it is dropped minus the live bytes just after.  The
//! topic-word table sits in an `Arc` held outside the engines, so only what
//! an engine itself keeps is counted.  The allocator counts every thread of
//! the test binary, so the tests here take one lock and never run side by
//! side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use ksir_core::config::ArchiveRetention;
use ksir_core::{EngineConfig, KsirEngine, ScoringConfig};
use ksir_datagen::{DatasetProfile, StreamGenerator};
use ksir_stream::WindowConfig;
use ksir_types::{DenseTopicWordTable, SocialElement, TopicId, TopicVector, TopicWordDistribution};

/// The system allocator, keeping a running total of the bytes it has live.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments unchanged to `System` and returns
// what `System` returned, so `Counting` keeps the `GlobalAlloc` contract
// exactly as `System` does; `LIVE` is bookkeeping that no allocation reads.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's guarantees for
        // `new_size`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Ordering::SeqCst);
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by each test for its whole run, so no two count at once.
static SERIAL: Mutex<()> = Mutex::new(());

/// Replays `stream` into a fresh engine over `phi`, then returns the active
/// element count and the bytes the engine frees when dropped.
fn engine_heap(
    phi: &Arc<DenseTopicWordTable>,
    config: EngineConfig,
    stream: Vec<(SocialElement, TopicVector)>,
) -> (usize, usize) {
    let mut engine = KsirEngine::new(Arc::clone(phi), config).unwrap();
    engine.ingest_stream(stream).unwrap();
    let active = engine.active_count();
    let live = LIVE.load(Ordering::SeqCst);
    drop(engine);
    (active, live - LIVE.load(Ordering::SeqCst))
}

#[test]
fn engine_memory_does_not_grow_with_the_number_of_topics() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let config = EngineConfig::new(
        WindowConfig::new(1_440, 15).unwrap(),
        ScoringConfig::default(),
    );
    let stream = StreamGenerator::new(DatasetProfile::twitter().with_topics(50), 7)
        .unwrap()
        .generate()
        .unwrap();
    let narrow: Vec<(SocialElement, TopicVector)> = stream.iter_pairs().collect();
    assert_eq!(narrow.len(), 6_000);

    // The same stream at z = 200: 150 more topics, uniform over the
    // vocabulary, on which no element has any probability.
    let phi = stream.planted.phi();
    let (z, vocab) = (phi.num_topics(), phi.vocab_size());
    let mut rows: Vec<Vec<f64>> = (0..z as u32)
        .map(|t| phi.row(TopicId(t)).to_vec())
        .collect();
    rows.resize(200, vec![1.0 / vocab as f64; vocab]);
    let wide_phi = Arc::new(DenseTopicWordTable::from_rows(rows).unwrap());
    let wide: Vec<(SocialElement, TopicVector)> = narrow
        .iter()
        .map(|(element, tv)| {
            let mut values = tv.as_slice().to_vec();
            values.resize(200, 0.0);
            (element.clone(), TopicVector::from_values(values).unwrap())
        })
        .collect();

    let (active, narrow_heap) = engine_heap(&Arc::new(phi.clone()), config, narrow);
    let (wide_active, wide_heap) = engine_heap(&wide_phi, config, wide);
    assert_eq!(active, wide_active);
    assert!(active > 500, "only {active} active elements");
    let growth = (wide_heap as f64 - narrow_heap as f64) / narrow_heap as f64;
    assert!(
        growth.abs() < 0.01,
        "{narrow_heap} B at z = 50 vs {wide_heap} B at z = 200 over {active} active \
         elements ({:+.1} %)",
        100.0 * growth
    );
}

#[test]
fn engine_memory_does_not_grow_with_the_stream() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    // The Twitter profile posts at a steady rate over a week: a window of a
    // twentieth of it, an archive as long as the window.
    let stream = StreamGenerator::new(DatasetProfile::twitter(), 7)
        .unwrap()
        .generate()
        .unwrap();
    let pairs: Vec<(SocialElement, TopicVector)> = stream.iter_pairs().collect();
    let span = pairs.last().unwrap().0.ts.raw();
    let window = span / 20 / 12 * 12;
    let config = EngineConfig::new(
        WindowConfig::new(window, 12).unwrap(),
        ScoringConfig::default(),
    )
    .with_archive(ArchiveRetention::Ticks(window));
    let phi = Arc::new(stream.planted.phi().clone());

    let five: Vec<_> = pairs
        .iter()
        .filter(|(element, _)| element.ts.raw() <= 5 * window)
        .cloned()
        .collect();
    let (five_active, five_heap) = engine_heap(&phi, config, five);
    let (twenty_active, twenty_heap) = engine_heap(&phi, config, pairs);
    assert!(five_active > 200, "only {five_active} active elements");
    let growth = (twenty_heap as f64 - five_heap as f64) / five_heap as f64;
    assert!(
        growth.abs() < 0.10,
        "{five_heap} B after 5 windows ({five_active} active) vs {twenty_heap} B after 20 \
         ({twenty_active} active): {:+.1} %",
        100.0 * growth
    );
}

/// Bytes of engine heap per ingested element when the archive keeps every
/// element: the window, the lists and the rows of the active elements, plus
/// the payload and the row of every element ever ingested.
fn heap_per_ingested_element(profile: DatasetProfile) -> f64 {
    let stream = StreamGenerator::new(profile.scaled(0.5), 7)
        .unwrap()
        .generate()
        .unwrap();
    let pairs: Vec<(SocialElement, TopicVector)> = stream.iter_pairs().collect();
    let ingested = pairs.len();
    let span = pairs.last().unwrap().0.ts.raw();
    let window = span / 20 / 12 * 12;
    let config = EngineConfig::new(
        WindowConfig::new(window, 12).unwrap(),
        ScoringConfig::default(),
    )
    .with_archive(ArchiveRetention::Unbounded);
    let (_, heap) = engine_heap(&Arc::new(stream.planted.phi().clone()), config, pairs);
    heap as f64 / ingested as f64
}

/// A row keeps each support topic's `σ_i(w, e)` column for the element's
/// whole life, and the archive shares the row, so every element ever
/// ingested pays for its columns.  The flat document pays for them: before
/// the columns and the flat run, an ingested element cost 318.8 B on the
/// Twitter-shaped stream and 646.2 B on the AMiner-shaped one; with both,
/// 289.7 B and 632.7 B.  Short documents gain the least from the flat run,
/// so the Twitter shape is the tighter of the two.  The ceiling is the
/// earlier figure plus the 10 % the benchmark allows `peak_rss_mb`.
#[test]
fn an_archived_element_costs_no_more_than_before_its_columns() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    for (profile, before) in [
        (DatasetProfile::twitter(), 318.8),
        (DatasetProfile::aminer(), 646.2),
    ] {
        let name = profile.name.clone();
        let per_element = heap_per_ingested_element(profile);
        assert!(
            per_element <= 1.10 * before,
            "{name}: {per_element:.1} B per ingested element against {before} B before \
             the σ columns ({:+.1} %)",
            100.0 * (per_element / before - 1.0)
        );
    }
}
