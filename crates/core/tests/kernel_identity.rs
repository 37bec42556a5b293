//! Golden decisions of the k-SIR kernel.
//!
//! The scoring kernel may be restructured freely as long as every decision it
//! takes stays bit-identical.  This suite pins that: over two seeded
//! `ksir-datagen` streams — short posts (≈5 words, at most one reference) and
//! long documents (≈49 words, ≈3.7 references) — it runs 64 queries × all
//! five [`Algorithm`]s × `k ∈ {1, 5, 10, 25}` against the live engine and
//! an [`EngineSnapshot`], and compares `(elements, score.to_bits(),
//! evaluated_elements, gain_evaluations, frontier)` of every run against
//! `fixtures/kernel_identity.txt`.  Per query, algorithm and source it also
//! checks that one [`QuerySource::query_per_k`] pass over all four `k`
//! returns exactly the four single-`k` results.
//!
//! The fixture holds one line per `(shape, source, algorithm, k)` cell: an
//! FNV-1a digest over the 64 results plus the two work counters in the clear,
//! so a failure says whether decisions or only counts moved.  It was recorded
//! from the kernel as it stood *before* element profiles existed; re-record
//! (only when a change is *meant* to alter decisions) with
//!
//! ```sh
//! cargo test -p ksir-core --test kernel_identity -- --ignored record_fixture
//! ```

use std::fmt::Write as _;

use ksir_core::{
    Algorithm, EngineConfig, KsirEngine, KsirQuery, QueryResult, QuerySource, ScoringConfig,
};
use ksir_datagen::{DatasetProfile, QueryWorkloadGenerator, StreamGenerator};
use ksir_snapshot::EngineSnapshot;
use ksir_stream::WindowConfig;
use ksir_types::{DenseTopicWordTable, QueryVector};

const FIXTURE: &str = include_str!("fixtures/kernel_identity.txt");
const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/kernel_identity.txt"
);

const QUERIES: usize = 64;
const KS: [usize; 4] = [1, 5, 10, 25];
const SOURCES: [&str; 2] = ["live", "engine_snapshot"];

/// One stream shape: the engine at the end of its stream plus the probes.
struct Shape {
    name: &'static str,
    engine: KsirEngine<DenseTopicWordTable>,
    vectors: Vec<QueryVector>,
}

fn build_shape(name: &'static str, profile: DatasetProfile, max_refs: Option<usize>) -> Shape {
    let stream = StreamGenerator::new(profile, 0x5eed_cafe)
        .unwrap()
        .generate()
        .unwrap();
    // η = 2 keeps both score components in play on either shape.
    let config = EngineConfig::new(
        WindowConfig::new(6 * 60, 30).unwrap(),
        ScoringConfig::new(0.5, 2.0).unwrap(),
    );
    let mut engine = KsirEngine::new(stream.planted.phi().clone(), config).unwrap();
    let pairs = stream.iter_pairs().map(|(mut element, tv)| {
        if let Some(max) = max_refs {
            element.refs.truncate(max);
        }
        (element, tv)
    });
    engine.ingest_stream(pairs).unwrap();
    let vectors = QueryWorkloadGenerator::new(&stream.planted, 0xbeef)
        .generate(QUERIES, stream.end_time())
        .unwrap()
        .into_iter()
        .map(|q| q.vector)
        .collect();
    Shape {
        name,
        engine,
        vectors,
    }
}

fn shapes() -> [Shape; 2] {
    [
        build_shape(
            "posts",
            DatasetProfile::twitter()
                .scaled(0.4)
                .with_elements(4_800)
                .with_topics(20),
            Some(1),
        ),
        build_shape(
            "documents",
            DatasetProfile::aminer().scaled(0.25).with_topics(20),
            None,
        ),
    ]
}

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn optional(&mut self, value: Option<f64>) {
        match value {
            Some(v) => {
                self.word(1);
                self.word(v.to_bits());
            }
            None => self.word(0),
        }
    }

    fn result(&mut self, result: &QueryResult) {
        self.word(result.elements.len() as u64);
        for id in &result.elements {
            self.word(id.raw());
        }
        self.word(result.score.to_bits());
        self.word(result.evaluated_elements as u64);
        self.word(result.gain_evaluations as u64);
        match &result.frontier {
            Some(frontier) => {
                self.word(1 + frontier.floors.len() as u64);
                for &(topic, floor) in &frontier.floors {
                    self.word(topic.index() as u64);
                    self.optional(floor);
                }
                self.optional(frontier.bar);
            }
            None => self.word(0),
        }
    }
}

/// One fixture cell, accumulated over the 64 queries.
#[derive(Clone, Copy)]
struct Cell {
    digest: Digest,
    evaluated: usize,
    gain_evaluations: usize,
}

impl Cell {
    fn new() -> Self {
        Cell {
            digest: Digest::new(),
            evaluated: 0,
            gain_evaluations: 0,
        }
    }

    fn absorb(&mut self, result: &QueryResult) {
        self.digest.result(result);
        self.evaluated += result.evaluated_elements;
        self.gain_evaluations += result.gain_evaluations;
    }
}

/// Runs every cell of one shape and renders its fixture lines.  Along the
/// way, every source's one-pass answer at all of [`KS`] is checked against
/// its four single-`k` runs.
fn run_shape(shape: &Shape, out: &mut String) {
    let engine = &shape.engine;
    let snapshot = EngineSnapshot::capture(engine, 1);
    for algorithm in Algorithm::ALL {
        let mut cells = [[Cell::new(); SOURCES.len()]; KS.len()];
        for vector in &shape.vectors {
            let mut per_source: [Vec<QueryResult>; SOURCES.len()] = Default::default();
            for (k, cells) in KS.into_iter().zip(&mut cells) {
                let query = KsirQuery::new(k, vector.clone()).unwrap();
                let live = engine.query(&query, algorithm).unwrap();
                let frozen = snapshot.query(&query, algorithm).unwrap();
                for ((cell, result), all) in
                    cells.iter_mut().zip([live, frozen]).zip(&mut per_source)
                {
                    cell.absorb(&result);
                    all.push(result);
                }
            }

            let query = KsirQuery::new(1, vector.clone()).unwrap();
            let sources: [&dyn QuerySource; SOURCES.len()] = [engine, &snapshot];
            for ((name, source), single) in SOURCES.iter().zip(sources).zip(&per_source) {
                let multi = source.query_per_k(&query, &KS, algorithm).unwrap();
                assert_eq!(
                    &multi, single,
                    "{} {name} {algorithm}: one pass diverged",
                    shape.name
                );
            }
        }
        for (k, cells) in KS.into_iter().zip(&cells) {
            for (source, cell) in SOURCES.iter().zip(cells) {
                writeln!(
                    out,
                    "{} {} {} k={} queries={} evaluated={} gain_evaluations={} digest={:016x}",
                    shape.name,
                    source,
                    algorithm.name(),
                    k,
                    shape.vectors.len(),
                    cell.evaluated,
                    cell.gain_evaluations,
                    cell.digest.0,
                )
                .unwrap();
            }
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    for shape in shapes() {
        writeln!(
            out,
            "# {}: {} active elements, {} ranked-list tuples",
            shape.name,
            shape.engine.active_count(),
            shape.engine.ranked_lists().total_entries(),
        )
        .unwrap();
        run_shape(&shape, &mut out);
    }
    out
}

#[test]
fn kernel_reproduces_the_recorded_decisions() {
    let actual = render();
    let expected: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with("##")).collect();
    let actual: Vec<&str> = actual.lines().collect();
    let cells = 2 * Algorithm::ALL.len() * KS.len() * SOURCES.len();
    assert_eq!(expected.len(), cells + 2, "fixture is incomplete");
    for (line, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(got, want, "fixture line {} diverged", line + 1);
    }
    assert_eq!(actual.len(), expected.len());
}

/// Rewrites the fixture from the kernel as it is now.
#[test]
#[ignore = "overwrites the golden fixture"]
fn record_fixture() {
    let header = "## Golden k-SIR kernel decisions; see tests/kernel_identity.rs.\n\
                  ## Recorded from the per-call scoring kernel (parent of the element-profile change).\n";
    std::fs::write(FIXTURE_PATH, format!("{header}{}", render())).unwrap();
}
