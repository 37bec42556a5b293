//! # ksir-core
//!
//! The paper's primary contribution: the **Semantic and Influence aware
//! k-Representative (k-SIR) query** and its real-time processing algorithms
//! over social streams (Wang, Li, Tan — EDBT 2019).
//!
//! A k-SIR query `q_t(k, x)` asks, at time `t`, for a set `S` of at most `k`
//! *active* elements maximising the representativeness score
//!
//! ```text
//! f(S, x) = Σ_i x_i · ( λ·R_i(S) + (1-λ)/η · I_{i,t}(S) )
//! ```
//!
//! where `R_i` is a weighted word-coverage (semantic) score and `I_{i,t}` a
//! probabilistic-coverage (influence) score, both topic-specific and both
//! monotone submodular.  This crate provides:
//!
//! * [`ScoringConfig`] / [`Scorer`] — the scoring function itself (§3.2),
//! * [`KsirEngine`] — sliding-window maintenance of the active elements and
//!   the per-topic ranked lists (Algorithm 1, Figure 4), with one sparse
//!   [`ElementRow`] per active element as its topic store,
//! * [`KsirQuery`] / [`Algorithm`] / [`QueryResult`] — the query interface,
//! * the query-processing algorithms: **MTTS** (Algorithm 2), **MTTD**
//!   (Algorithm 3), and the **CELF**, **SieveStreaming** and **Top-k
//!   Representative** baselines the paper compares against,
//! * [`fixtures::paper_example`] — the paper's running example (Table 1),
//!   used throughout the tests to reproduce the worked examples.
//!
//! ## Quick start
//!
//! ```
//! use ksir_core::{fixtures::paper_example, Algorithm, KsirQuery};
//! use ksir_types::QueryVector;
//!
//! // Build the engine over the paper's 8-tweet example stream (Table 1).
//! let example = paper_example();
//! let engine = example.build_engine();
//!
//! // "I am equally interested in both topics" — the query of Example 3.4.
//! let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5]).unwrap()).unwrap();
//! let result = engine.query(&query, Algorithm::Mttd).unwrap();
//!
//! assert_eq!(result.len(), 2);
//! assert!(result.score > 0.6); // OPT ≈ 0.65 in the paper
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod algorithms;
pub mod config;
pub mod dense;
pub mod engine;
pub mod evaluator;
pub mod fixtures;
pub mod query;
pub mod row;
pub mod scorer;
pub mod shared;
mod tuples;
pub mod view;

pub use config::{EngineConfig, ScoringConfig};
pub use engine::{EngineStats, IngestReport, KsirEngine};
pub use evaluator::{
    CandidateState, CoverageTable, ElementProfile, ProfileArena, ProfileId, QueryEvaluator,
};
pub use query::{Algorithm, KsirQuery, QueryFrontier, QueryResult};
pub use row::{ElementRow, ElementRows};
pub use scorer::{entropy_weight, propagation_prob, word_weight, Scorer};
pub use shared::SharedEngine;
pub use view::{run_query, run_query_per_k, QuerySource, RankedView};
