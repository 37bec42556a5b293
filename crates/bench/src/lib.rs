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
//! * [`table`] — plain-text table rendering so each `exp_*` binary prints
//!   rows in the same layout as the paper.
//!
//! Every experiment binary accepts a `--scale <factor>` argument (default
//! 0.25) that multiplies the stream sizes, so the full sweep can be run
//! quickly for a smoke test or at larger scale for more stable numbers.  Any
//! other argument, or a factor that is not a positive number, prints usage
//! and exits with status 2.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod effectiveness;
pub mod scenario;
pub mod table;

pub use effectiveness::{run_effectiveness, EffectivenessConfig, EffectivenessReport};
pub use scenario::{
    build_engine, replay_with_queries, ProcessingConfig, ProcessingReport, QueryMeasurement,
};
pub use table::Table;

/// The scale factor of an experiment run without `--scale`: a quick laptop
/// run.
const DEFAULT_SCALE: f64 = 0.25;

/// Parses an experiment binary's arguments (program name excluded): none,
/// `--scale <factor>` or `--scale=<factor>`, where the factor is a positive
/// finite number.  Returns the error to print for anything else.
fn parse_scale(args: &[String]) -> Result<f64, String> {
    let mut scale = DEFAULT_SCALE;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let value = if arg == "--scale" {
            args.next()
                .map(String::as_str)
                .ok_or("`--scale` needs a value")?
        } else if let Some(value) = arg.strip_prefix("--scale=") {
            value
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        scale = value
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("`--scale` must be a positive number, not `{value}`"))?;
    }
    Ok(scale)
}

/// Reads `--scale <factor>` from the process arguments; on any other
/// argument or a factor that is not a positive number, prints the error and
/// usage to stderr and exits with status 2.
pub fn scale_from_args() -> f64 {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let args: Vec<String> = args.collect();
    parse_scale(&args).unwrap_or_else(|error| {
        eprintln!("{program}: {error}");
        eprintln!("usage: {program} [--scale <factor>]  (factor > 0, default {DEFAULT_SCALE})");
        std::process::exit(2);
    })
}

#[cfg(test)]
mod tests {
    use super::{parse_scale, DEFAULT_SCALE};

    fn parse(args: &[&str]) -> Result<f64, String> {
        let args: Vec<String> = args.iter().map(|arg| arg.to_string()).collect();
        parse_scale(&args)
    }

    #[test]
    fn default_scale_is_returned_without_args() {
        assert_eq!(parse(&[]), Ok(DEFAULT_SCALE));
    }

    #[test]
    fn scale_is_read_in_both_spellings() {
        assert_eq!(parse(&["--scale", "0.5"]), Ok(0.5));
        assert_eq!(parse(&["--scale=0.5"]), Ok(0.5));
    }

    #[test]
    fn positional_and_unknown_arguments_are_rejected() {
        assert!(parse(&["0.1"]).is_err());
        assert!(parse(&["--scael", "0.1"]).is_err());
        assert!(parse(&["--scale", "0.5", "--full"]).is_err());
    }

    #[test]
    fn non_numeric_and_missing_values_are_rejected() {
        assert!(parse(&["--scale", "abc"]).is_err());
        assert!(parse(&["--scale=abc"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "NaN"]).is_err());
    }

    #[test]
    fn non_positive_values_are_rejected() {
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale=-1"]).is_err());
        assert!(parse(&["--scale", "inf"]).is_err());
    }
}
