//! # ksir-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§5) on synthetic streams, plus shared scaffolding for
//! the Criterion micro-benchmarks.
//!
//! * [`scenario`] — builds engines from generated streams and replays them
//!   with interleaved query workloads, measuring per-query latency, result
//!   quality, evaluated-element ratios and ranked-list update times
//!   (Figures 7–14).
//! * [`effectiveness`] — runs the k-SIR query and the four effectiveness
//!   baselines over the same workloads and scores them with the coverage /
//!   influence metrics and the proxy user study (Tables 5 and 6).
//! * [`maintenance`] — the standing-query maintenance scenario shared by the
//!   `continuous*` benches and the CI perf gate: recompute-per-slide vs
//!   serial delta refresh vs sharded multi-core refresh over one stream.
//! * [`table`] — plain-text table rendering so each `exp_*` binary prints
//!   rows in the same layout as the paper.
//!
//! Every experiment binary accepts a `--scale <factor>` argument (default
//! 0.25) that multiplies the stream sizes, so the full sweep can be run
//! quickly for a smoke test or at larger scale for more stable numbers.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod effectiveness;
pub mod maintenance;
pub mod scenario;
pub mod table;

pub use effectiveness::{run_effectiveness, EffectivenessConfig, EffectivenessReport};
pub use maintenance::{AsyncMaintenanceRun, MaintenanceRun, MaintenanceScenario, SharedPlansRun};
pub use scenario::{
    build_engine, replay_with_queries, ProcessingConfig, ProcessingReport, QueryMeasurement,
};
pub use table::Table;

/// Parses the `--scale <factor>` command-line argument used by all the
/// experiment binaries (defaults to 0.25 — a quick laptop run).
pub fn scale_from_args() -> f64 {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--scale" {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                return v.max(0.01);
            }
        }
        if let Some(rest) = args[i].strip_prefix("--scale=") {
            if let Ok(v) = rest.parse::<f64>() {
                return v.max(0.01);
            }
        }
    }
    0.25
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_scale_is_returned_without_args() {
        assert_eq!(super::scale_from_args(), 0.25);
    }
}
