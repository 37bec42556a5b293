//! End-to-end and per-layer benchmark of the ksir workspace.
//!
//! `benchmark --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload and prints its result object as the last line of stdout (the
//! contract `BENCHMARK.json` describes).  `--all` re-executes this binary
//! once per workload, `--check-aa` measures how well two sets of runs of the
//! same code agree, `--smoke` shrinks everything to a wiring check.  See
//! `README.md` beside this package for the metric glossary.

mod inputs;
mod layers;
mod replay;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use replay::{Repeat, MTTD, MTTS};
use stats::{
    best_to_median_spread, denoised, parse_result_json, quantile, quartiles, ratio, result_json,
    second_best, vm_mb, Better, Metric,
};
use workloads::{Workload, WORKLOADS};

/// `(name, unit, direction, bound)` of the end-to-end metrics; the same rows
/// as `BENCHMARK.json`'s `end_to_end`.
const END_TO_END: [(&str, &str, Better, f64); 9] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("ingest_elements_per_s", "1/s", Better::Higher, 0.25),
    ("slide_p50_ms", "ms", Better::Lower, 0.25),
    ("delivery_p50_ms", "ms", Better::Lower, 0.25),
    ("query_mtts_p50_us", "us", Better::Lower, 0.15),
    ("query_mttd_p50_us", "us", Better::Lower, 0.15),
    ("score_ratio_mtts", "ratio", Better::Higher, 0.03),
    ("score_ratio_mttd", "ratio", Better::Higher, 0.03),
    ("peak_rss_mb", "MB", Better::Lower, 0.1),
];

/// Untraced repeats per `--seconds`: each workload is sized so that one
/// repeat with its set-up takes about this long on the reference host.  The
/// count is fixed before anything runs, so it is the same on both sides of a
/// comparison however fast the program is.
const REPEAT_SECONDS: f64 = 4.0;
/// Starts the line that prints the counts no timing can change.
const COUNTS_PREFIX: &str = "  counts ";
/// Seeds per set of `--check-aa`, as many as the acceptance check runs.
const AA_RUNS: u64 = 10;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    all: bool,
    check_aa: bool,
    spread_out: String,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        trace_out: None,
        all: false,
        check_aa: false,
        spread_out: "examples/benchmark/MEASURED_SPREAD.json".into(),
        smoke: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--traced" => args.trace = true,
            "--trace-out" => args.trace_out = Some(value()?),
            "--all" => args.all = true,
            "--check-aa" => args.check_aa = true,
            "--spread-out" => args.spread_out = value()?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.check_aa {
        check_aa(&args)
    } else if args.all {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One end-to-end timing metric: its value over the whole run, and the
/// per-repeat values and sample count printed beside it.
struct Cell {
    name: &'static str,
    value: f64,
    per_repeat: Vec<f64>,
    samples: usize,
}

/// The p50 of a per-operation series, de-noised across repeats.
fn p50_cell(name: &'static str, repeats: &[Repeat], series: fn(&Repeat) -> &[f64]) -> Cell {
    let rows: Vec<&[f64]> = repeats.iter().map(series).collect();
    Cell {
        name,
        value: quantile(&denoised(&rows), 0.5),
        per_repeat: rows.iter().map(|r| quantile(r, 0.5)).collect(),
        samples: rows.first().map_or(0, |r| r.len()),
    }
}

fn timing_cells(inp: &inputs::Inputs, repeats: &[Repeat]) -> Vec<Cell> {
    let setups: Vec<f64> = repeats.iter().map(|r| r.setup_s).collect();
    let parts: Vec<&[f64]> = repeats.iter().map(|r| &r.ingest_parts_s[..]).collect();
    let elements = repeats.first().map_or(0, |r| r.ingest_elements);
    vec![
        Cell {
            name: "setup_s",
            // Inputs are generated once per run, engines once per repeat.
            value: inp.generate_s + second_best(&setups, Better::Lower),
            per_repeat: setups,
            samples: repeats.len(),
        },
        Cell {
            name: "ingest_elements_per_s",
            value: ratio(elements as f64, denoised(&parts).iter().sum()),
            per_repeat: repeats.iter().map(Repeat::elements_per_s).collect(),
            samples: elements,
        },
        p50_cell("slide_p50_ms", repeats, |r| &r.slide_ms),
        p50_cell("delivery_p50_ms", repeats, |r| &r.delivery_ms),
        p50_cell("query_mtts_p50_us", repeats, |r| &r.query_us[MTTS]),
        p50_cell("query_mttd_p50_us", repeats, |r| &r.query_us[MTTD]),
    ]
}

/// Runs one workload in this process and prints its result object.
fn run_one(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or(
        "give --workload NAME (one of ingest_dense, adhoc_wide, standing_distinct, \
         standing_shared_async), --all or --check-aa",
    )?;
    let base = workloads::by_name(name).ok_or(format!("unknown workload {name}"))?;
    let workload = if args.smoke { base.smoke() } else { *base };

    let mut spans = spans::Spans::new(args.trace);
    let span = spans.open("datagen.generate", spans::NO_SPAN, 0);
    let inp = inputs::generate(&workload, args.seed)?;
    spans.close(span);
    // The harness keeps one pre-bucketed copy of the inputs; taking it off
    // the peak leaves what an engine and its manager grow to.
    let rss_after_inputs = vm_mb("VmRSS");

    // A traced run makes one untraced and one traced repeat; three is the
    // fewest the second-best estimator can use.
    let count = if args.trace {
        2
    } else if args.smoke {
        1
    } else {
        ((args.seconds / REPEAT_SECONDS).round() as usize).max(3)
    };
    let mut repeats: Vec<Repeat> = Vec::with_capacity(count);
    let mut peak_rss_mb = 0.0;
    for i in 0..count {
        let traced = args.trace && i % 2 == 1;
        repeats.push(replay::run_repeat(&inp, &workload, traced, &mut spans));
        if i == 0 {
            // One engine and manager at full size; later repeats only add
            // what the allocator happens to keep of the dropped ones.
            peak_rss_mb = vm_mb("VmHWM") - rss_after_inputs;
        }
    }

    let mut attempted: u64 = repeats.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = repeats.iter().map(|r| r.failed).sum();
    let mut notes: Vec<String> = repeats.iter().flat_map(|r| r.failures.clone()).collect();
    // Counts that do not depend on timing must repeat exactly.
    for (i, r) in repeats.iter().enumerate().skip(1) {
        attempted += 1;
        if r.counts != repeats[0].counts {
            failed += 1;
            notes.push(format!(
                "repeat {i} counted {:?}, repeat 0 counted {:?}",
                r.counts, repeats[0].counts
            ));
        }
    }

    println!(
        "workload {name}  seed {}  repeats {}  nproc {}  threads 2 (driver + 1 pool worker){}",
        args.seed,
        repeats.len(),
        std::thread::available_parallelism().map_or(0, usize::from),
        if args.smoke {
            "  SMOKE: numbers compare with nothing"
        } else {
            ""
        }
    );
    println!("  why: {}", workload.why);
    println!(
        "  {} elements in {} buckets ({} warm-up), {} subscriptions, {} probes per repeat",
        inp.elements,
        inp.buckets.len(),
        inp.warmup,
        inp.panel.len(),
        inp.probes.len()
    );

    let metrics = if args.trace {
        let iso = layers::isolated_replays(&inp, &workload, &mut spans)?;
        let rate = |traced: bool| {
            let rates: Vec<f64> = repeats
                .iter()
                .filter(|r| r.traced == traced)
                .map(Repeat::elements_per_s)
                .collect();
            second_best(&rates, Better::Higher)
        };
        let last_traced = repeats
            .iter()
            .rev()
            .find(|r| r.traced)
            .expect("a traced run makes at least two repeats, the second one traced");
        println!("  {} spans recorded", spans.len());
        if let Some(path) = &args.trace_out {
            spans
                .write_jsonl(path)
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("  spans written to {path}");
        }
        layers::per_layer(&inp, &workload, last_traced, &iso, rate(false), rate(true))
    } else {
        end_to_end(&inp, &repeats, peak_rss_mb)
    };
    for m in &metrics {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{COUNTS_PREFIX}{:?}", repeats[0].counts);
    println!("  ops_attempted {attempted}  ops_failed {failed}");
    for note in notes.iter().take(8) {
        println!("  FAILED: {note}");
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    Ok(failed == 0)
}

fn end_to_end(inp: &inputs::Inputs, repeats: &[Repeat], peak_rss_mb: f64) -> Vec<Metric> {
    let cells = timing_cells(inp, repeats);
    let mut metrics = Vec::with_capacity(END_TO_END.len());
    for (name, unit, better, _) in END_TO_END {
        let value = match cells.iter().find(|c| c.name == name) {
            Some(cell) => {
                println!(
                    "  {name}_n {}  {name}_spread {:.4}  per repeat {:.4?}",
                    cell.samples,
                    best_to_median_spread(&cell.per_repeat, better),
                    cell.per_repeat
                );
                cell.value
            }
            // Deterministic: identical in every repeat (checked above).
            None if name == "score_ratio_mtts" => {
                ratio(repeats[0].ratio_sum[MTTS], repeats[0].ratio_n as f64)
            }
            None if name == "score_ratio_mttd" => {
                ratio(repeats[0].ratio_sum[MTTD], repeats[0].ratio_n as f64)
            }
            None => peak_rss_mb,
        };
        metrics.push(Metric::new(name, unit, value));
    }
    metrics
}

/// Runs `this binary --workload …` as a child and returns its stdout.
fn child(
    args: &Args,
    workload: &Workload,
    seed: u64,
    trace: bool,
) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(out)) = (trace, &args.trace_out) {
        cmd.args(["--trace-out", &format!("{out}.{}.jsonl", workload.name)]);
    }
    // `output` waits for the child, so none outlives this process.
    let output = cmd.output().map_err(|e| e.to_string())?;
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

/// Every workload, each in a fresh process: a clean allocator and a
/// `VmHWM` of its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for workload in &WORKLOADS {
        let (success, stdout) = child(args, workload, args.seed, args.trace)?;
        print!("{stdout}");
        ok &= success;
    }
    println!(
        "{}",
        if ok {
            "benchmark: every workload passed its checks"
        } else {
            "benchmark: FAILED (see above)"
        }
    );
    Ok(ok)
}

fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Quartile distance as a share of the median (max − min for tiny samples).
fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    let width = if values.len() >= 4 {
        q3 - q1
    } else {
        values.iter().copied().fold(f64::MIN, f64::max)
            - values.iter().copied().fold(f64::MAX, f64::min)
    };
    ratio(width, q2.abs())
}

/// Two back-to-back sets of untraced runs per workload over the same
/// [`AA_RUNS`] seeds.  Per cell, against the metric's bound: the spread over
/// the seeds of a set (input variance and host noise together, which is what
/// the acceptance check gates), how much the second set's median is worse
/// than the first's, and the difference between the two runs of one seed
/// (the host alone).  Score ratios and counts of one seed must repeat
/// exactly.  Writes the figures where later changes can size a claimable
/// margin.
fn check_aa(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut json = String::from("{\n");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        // values[set][metric][seed], counts[set][seed]
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        let mut counts = vec![Vec::new(); 2];
        for (set, counts) in values.iter_mut().zip(&mut counts) {
            for seed in args.seed..args.seed + AA_RUNS {
                let (success, stdout) = child(args, workload, seed, false)?;
                let parsed = stdout.lines().last().and_then(parse_result_json);
                let Some((true, metrics)) = parsed.filter(|_| success) else {
                    return Err(format!("{} failed:\n{stdout}", workload.name));
                };
                for (slot, (name, ..)) in set.iter_mut().zip(END_TO_END) {
                    let value = metrics.iter().find(|(n, _)| n == name);
                    slot.push(value.ok_or(format!("{name} missing"))?.1);
                }
                let line = stdout.lines().find(|l| l.starts_with(COUNTS_PREFIX));
                counts.push(line.ok_or("counts line missing")?.to_string());
            }
        }
        println!("{}", workload.name);
        if counts[0] != counts[1] {
            ok = false;
            println!("  COUNTS OF ONE SEED DIFFER BETWEEN THE SETS");
        }
        let _ = writeln!(json, "  \"{}\": {{", workload.name);
        for (i, (name, _, better, bound)) in END_TO_END.into_iter().enumerate() {
            let (a, b) = (&values[0][i], &values[1][i]);
            let within = spread(a).max(spread(b));
            let drift = match better {
                Better::Lower => ratio(median(b) - median(a), median(a)),
                Better::Higher => ratio(median(a) - median(b), median(a)),
            };
            let paired: Vec<f64> = a
                .iter()
                .zip(b)
                .map(|(a, b)| ratio((b - a).abs(), a.abs()))
                .collect();
            let noise = median(&paired);
            // A set-up time's spread is reported but only its drift is held
            // to the bound, as the acceptance check does.
            let pass = drift <= bound
                && (name == "setup_s" || within <= bound)
                && (!name.starts_with("score_ratio") || a == b);
            ok &= pass;
            println!(
                "  {name:<24} median {:>12.4} / {:>12.4}  seed spread {within:.4}  same-seed {noise:.4}  drift {drift:+.4}  bound {bound}  {}",
                median(a),
                median(b),
                if !pass {
                    "EXCEEDED"
                } else if within > bound / 3.0 {
                    "ok (spread above a third of the bound)"
                } else {
                    "ok"
                }
            );
            let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "    \"{name}\": {{\"median\": {}, \"measured_spread\": {within}, \"same_seed_noise\": {noise}, \"drift\": {drift}, \"bound\": {bound}}}{sep}",
                median(a)
            );
        }
        let sep = if w + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(json, "  }}{sep}");
    }
    json.push_str("}\n");
    std::fs::write(&args.spread_out, json).map_err(|e| format!("{}: {e}", args.spread_out))?;
    println!(
        "measured spreads written to {}; {}",
        args.spread_out,
        if ok {
            "every cell within its bound"
        } else {
            "SOME CELL EXCEEDED ITS BOUND OR DID NOT REPEAT"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the contract; the rows compiled in here must be
    /// the rows it lists.
    #[test]
    fn benchmark_json_lists_the_same_rows() {
        let json = include_str!("../../../BENCHMARK.json");
        for (name, unit, better, bound) in END_TO_END {
            let better = match better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let row = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(json.contains(&row), "BENCHMARK.json lacks {row}");
        }
        for w in &WORKLOADS {
            let row = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&row), "BENCHMARK.json lacks {row}");
        }
    }
}
