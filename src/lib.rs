//! # ksir — Semantic and Influence aware k-Representative queries over social streams
//!
//! A from-scratch Rust reproduction of *"Semantic and Influence aware
//! k-Representative Queries over Social Streams"* (Yanhao Wang, Yuchen Li,
//! Kian-Lee Tan — EDBT 2019).
//!
//! A **k-SIR query** retrieves, from the elements active in a sliding window
//! over a social stream, a set of at most `k` elements that together maximise
//! a *representativeness* score w.r.t. a user's topic-preference vector.  The
//! score combines a topic-specific **semantic** score (weighted word
//! coverage) with a topic-specific, time-critical **influence** score
//! (probabilistic coverage of the elements that reference the result), and is
//! monotone submodular.  The paper's contribution — and this crate's core —
//! is a pair of index-based approximation algorithms, **MTTS** and **MTTD**,
//! that answer such queries in real time by traversing per-topic ranked lists
//! instead of evaluating every active element.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `ksir-types` | social elements, topic/query vectors, vocabularies |
//! | [`text`] | `ksir-text` | tokenisation, stop words, TF-IDF |
//! | [`topics`] | `ksir-topics` | LDA and BTM trainers, topic-model oracle |
//! | [`stream`] | `ksir-core` | sliding window, active elements, ranked lists, slide deltas |
//! | [`core`] | `ksir-core` | scoring, the engine, epoch snapshots, MTTS/MTTD/CELF/SieveStreaming/Top-k |
//! | [`continuous`] | `ksir-continuous` | standing queries with delta-driven result maintenance |
//! | [`obs`] | `ksir-obs` | live introspection HTTP server over the telemetry bundle |
//! | [`baselines`] | `ksir-baselines` | TF-IDF, DIV, Sumblr, REL effectiveness baselines |
//! | [`datagen`] | `ksir-datagen` | synthetic streams calibrated to the paper's datasets |
//! | [`eval`] | `ksir-eval` | coverage/influence metrics, proxy user study, kappa |
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! ## Example
//!
//! ```
//! use ksir::{Algorithm, KsirQuery, QueryVector};
//! use ksir::core::fixtures::paper_example;
//!
//! // The paper's running example (Table 1): 8 tweets, 2 topics.
//! let example = paper_example();
//! let engine = example.build_engine();
//!
//! // Example 3.4: a user equally interested in both topics asks for 2 elements.
//! let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5])?)?;
//! let result = engine.query(&query, Algorithm::Mttd)?;
//! assert_eq!(result.len(), 2);
//! # Ok::<(), ksir::KsirError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use ksir_baselines as baselines;
pub use ksir_continuous as continuous;
pub use ksir_core as core;
pub use ksir_core::stream;
pub use ksir_datagen as datagen;
pub use ksir_eval as eval;
pub use ksir_obs as obs;
pub use ksir_text as text;
pub use ksir_topics as topics;
pub use ksir_types as types;

pub use ksir_continuous::{
    ResultDelta, ShardConfig, ShardKey, ShardStats, SubscriptionId, SubscriptionManager,
};
pub use ksir_core::stream::{WindowConfig, WindowDelta};
pub use ksir_core::{
    Algorithm, EngineConfig, IngestReport, KsirEngine, KsirQuery, QueryFrontier, QueryResult,
    Scorer, ScoringConfig,
};
pub use ksir_topics::{BtmTrainer, LdaTrainer, TopicModel, TopicOracle};
pub use ksir_types::{
    Document, ElementId, KsirError, QueryVector, SocialElement, SocialElementBuilder, Timestamp,
    TopicId, TopicVector, Vocabulary,
};
