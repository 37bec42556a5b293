//! CI perf-regression gate for standing-query maintenance.
//!
//! Runs the shared [`MaintenanceScenario`] (10k-element stream, 16 standing
//! queries) under three synchronous strategies — recompute-per-slide, serial
//! managed refresh (PR-1 behaviour), and sharded multi-core refresh — plus the
//! asynchronous pipeline in three configurations: a fast and an artificially
//! slow delivery consumer at `pipeline_depth = 1` (the quiesce-before-write
//! barrier, the pre-snapshot baseline), and the **pipelined** mode
//! (`pipeline_depth = 2`, epoch snapshots) whose ingest-to-ingest interval
//! under refresh load is the number the snapshot subsystem exists to
//! improve.  Wall times, ingest latencies/intervals, skip ratios and
//! snapshot/copy-on-write counters go to `BENCH_continuous.json` (override
//! the path with the first CLI argument or `BENCH_OUT`).  The baseline JSON
//! is committed at the repo root, so the perf trajectory is tracked in-repo
//! and the CI artifact can be diffed against it.
//!
//! Seven gates, each failing the process with exit code 1 and printing
//! `gate=<name> measured=<x> allowed=<y>` so a CI failure needs no
//! re-derivation from the JSON:
//!
//! * **sharded**: the sharded path's wall time must not exceed the serial
//!   managed path by more than `PERF_GATE_TOLERANCE` (default 0.15 —
//!   absorbing runner noise on single-core CI hosts where the worker pool
//!   degenerates to the serial path).
//! * **async**: the pipeline's total ingest-return latency with a slow
//!   consumer (1 ms simulated work per delta) must not exceed the
//!   fast-consumer run by more than `PERF_GATE_ASYNC_TOLERANCE` (default
//!   0.5).  If ingestion ever waited on delivery, the slow run would blow
//!   past this by an order of magnitude.
//! * **pipelined**: the mean ingest-to-ingest interval at depth 2 must not
//!   exceed the depth-1 barrier run's by more than
//!   `PERF_GATE_PIPELINE_TOLERANCE` (default 0.25).  On a multi-core host
//!   depth 2 wins outright (refresh compute leaves the ingest path); on the
//!   1-core CI host the two interleave on the same core, so the comparison
//!   measures only the overlap's copy-on-write/scheduling overhead — the
//!   tolerance bounds that overhead, and a regression back to serialising
//!   index writes behind refresh compute (≈ +80% interval) blows through it
//!   regardless of core count.
//! * **telemetry**: the pipelined interval with the default telemetry
//!   (tracing on) must not exceed the tracing-off run's by more than
//!   `PERF_GATE_TELEMETRY_TOLERANCE` (default 0.25).  Telemetry's budget is
//!   a relaxed atomic per stage plus one bounded ring push per event; an
//!   instrumentation change that adds a lock or an allocation to the hot
//!   path shows up here.
//! * **per_subscription**: on the subscriber-heavy Zipf population
//!   ([`MaintenanceScenario::shared_standard`] — 100k standing queries over
//!   48 plan templates; override the count with
//!   `PERF_GATE_SHARED_SUBSCRIPTIONS`), the clustered path's **scoring
//!   passes per subscription** must come in at or under the unclustered
//!   control's divided by `PERF_GATE_SHARED_FACTOR` (default 5: at this
//!   overlap, plan sharing must save at least 5× outright).  Deterministic
//!   — the population is LCG-seeded, so the scoring-pass totals are exact —
//!   and both runs are also asserted decision-identical, so a pass can never come from the
//!   clustered path silently doing different work.
//!
//! * **reorder**: the wall time of a clean in-order replay through the
//!   reorder buffer ([`MaintenanceScenario::run_reorder_probe`] at horizon
//!   8) must not exceed the no-buffer async baseline by more than
//!   `PERF_GATE_REORDER_TOLERANCE` (default 0.05).  On a healthy stream
//!   the buffer re-sequences nothing and sheds nothing (asserted), so the
//!   gate bounds the pure cost of carrying the resilience front end; both
//!   runs are also asserted decision-identical to the serial path.
//!
//! * **obs**: the pipelined interval with a live `ksir-obs` introspection
//!   server attached and a scraper thread hammering `/metrics` and
//!   `/metrics.json` over real TCP ([`MaintenanceScenario::run_obs_probe`])
//!   must not exceed the unobserved pipelined interval by more than
//!   `PERF_GATE_OBS_TOLERANCE` (default 0.25).  E2E freshness stamping and
//!   the flight recorder are on in both runs; the gate isolates the cost of
//!   serving the surface — rendering the registry must never contend with
//!   the ingest hot path.
//!
//! Each timed strategy is run three times and the fastest run is kept,
//! which damps scheduler noise further; the deterministic shared-plans
//! probes run once each.
//!
//! `--json <path>` additionally writes a machine-readable gate-records file
//! (one object per gate: name, measured, allowed, the subscription count it
//! was measured over, verdict) for CI artifact upload, so a dashboard can
//! track the margins without parsing stderr.

use std::time::Duration;

use ksir_bench::{AsyncMaintenanceRun, MaintenanceRun, MaintenanceScenario};
use ksir_continuous::{ShardConfig, TelemetryConfig};

const RUNS_PER_STRATEGY: usize = 3;
const SLOW_CONSUMER_DELAY: Duration = Duration::from_millis(1);

fn best_of<F: Fn() -> MaintenanceRun>(run: F) -> MaintenanceRun {
    (0..RUNS_PER_STRATEGY)
        .map(|_| run())
        .min_by_key(|r| r.elapsed)
        .expect("at least one run")
}

fn best_of_async<F: Fn() -> AsyncMaintenanceRun>(
    key: fn(&AsyncMaintenanceRun) -> Duration,
    run: F,
) -> AsyncMaintenanceRun {
    (0..RUNS_PER_STRATEGY)
        .map(|_| run())
        .min_by_key(key)
        .expect("at least one run")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn env_tolerance(var: &str, default: f64) -> f64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One named gate: `measured` must stay within `allowed` (both in `unit`,
/// over a maintained population of `subscriptions` standing queries).
/// Prints the machine-greppable verdict line and, on failure, the
/// explanation.
struct Gate {
    name: &'static str,
    measured: f64,
    allowed: f64,
    unit: &'static str,
    subscriptions: usize,
    explanation: &'static str,
}

impl Gate {
    fn passed(&self) -> bool {
        self.measured <= self.allowed
    }

    fn report(&self) -> bool {
        eprintln!(
            "perf_gate: gate={} measured={:.1} {} allowed={:.1} {} -> {}",
            self.name,
            self.measured,
            self.unit,
            self.allowed,
            self.unit,
            if self.passed() { "PASS" } else { "FAIL" },
        );
        if !self.passed() {
            eprintln!("perf_gate: gate={} FAILED: {}", self.name, self.explanation);
        }
        self.passed()
    }
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            json_path = Some(args.next().expect("--json takes a path"));
        } else {
            out_path = Some(arg);
        }
    }
    let out_path = out_path
        .or_else(|| std::env::var("BENCH_OUT").ok())
        .unwrap_or_else(|| "BENCH_continuous.json".to_string());
    let tolerance = env_tolerance("PERF_GATE_TOLERANCE", 0.15);
    let async_tolerance = env_tolerance("PERF_GATE_ASYNC_TOLERANCE", 0.5);
    let pipeline_tolerance = env_tolerance("PERF_GATE_PIPELINE_TOLERANCE", 0.25);
    let telemetry_tolerance = env_tolerance("PERF_GATE_TELEMETRY_TOLERANCE", 0.25);
    let reorder_tolerance = env_tolerance("PERF_GATE_REORDER_TOLERANCE", 0.05);
    let obs_tolerance = env_tolerance("PERF_GATE_OBS_TOLERANCE", 0.25);
    let shared_factor = env_tolerance("PERF_GATE_SHARED_FACTOR", 5.0);
    let shared_subscriptions = std::env::var("PERF_GATE_SHARED_SUBSCRIPTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);

    let scenario = MaintenanceScenario::standard();
    eprintln!(
        "perf_gate: {} elements, {} subscriptions, best of {RUNS_PER_STRATEGY} runs per strategy",
        scenario.stream.len(),
        scenario.queries.len(),
    );

    // pipeline_depth = 1 reproduces the quiesce-before-write barrier: the
    // baseline both the async gate (consumer independence) and the pipelined
    // gate (epoch overlap) compare against.
    let barrier = ShardConfig::default().with_pipeline_depth(1);
    let pipelined_cfg = ShardConfig::default(); // depth 2

    let recompute = best_of(|| scenario.run_recompute());
    let serial = best_of(|| scenario.run_managed(ShardConfig::unsharded()));
    let sharded = best_of(|| scenario.run_managed(ShardConfig::default()));
    let async_fast = best_of_async(
        |r| r.ingest_return,
        || scenario.run_async(barrier, Duration::ZERO),
    );
    let async_slow = best_of_async(
        |r| r.ingest_return,
        || scenario.run_async(barrier, SLOW_CONSUMER_DELAY),
    );
    let pipelined = best_of_async(
        |r| r.ingest_span,
        || scenario.run_async(pipelined_cfg, Duration::ZERO),
    );
    // The same pipelined run with the trace ring off — the telemetry gate's
    // baseline.  (Metrics stay on in both runs; tracing is the only knob.)
    let untraced_cfg = pipelined_cfg.with_telemetry(TelemetryConfig::disabled());
    let untraced = best_of_async(
        |r| r.ingest_span,
        || scenario.run_async(untraced_cfg, Duration::ZERO),
    );
    // The obs gate's measured side: the same pipelined run with the
    // introspection server live and a scraper thread polling it throughout.
    let observed = best_of_async(|r| r.ingest_span, || scenario.run_obs_probe(pipelined_cfg));
    // The reorder gate's probes: the same clean in-order replay with and
    // without the reorder buffer staged in front of async ingestion.
    let reorder_base = best_of(|| scenario.run_reorder_probe(0));
    let reorder_buffered = best_of(|| scenario.run_reorder_probe(8));
    // The shared-plans probes: the subscriber-heavy Zipf population,
    // clustered vs per-subscription.  Scoring-pass counts are exact on
    // every run, so one run each suffices.
    let shared_scenario = MaintenanceScenario::zipf_population(shared_subscriptions);
    eprintln!(
        "perf_gate: shared-plans population {} subscriptions over {} elements",
        shared_scenario.queries.len(),
        shared_scenario.stream.len(),
    );
    let shared_on = shared_scenario.run_shared_probe(true);
    let shared_off = shared_scenario.run_shared_probe(false);
    let threads = ShardConfig::default().worker_threads();

    // Identical refresh decisions are a correctness invariant (pinned in the
    // continuous crate's tests); check it here too so a gate pass can never
    // come from a faster path silently doing less work.
    assert_eq!(
        serial.stats, sharded.stats,
        "sharded and serial paths must make identical refresh decisions"
    );
    assert_eq!(
        serial.stats, async_fast.stats,
        "the async pipeline must make identical refresh decisions"
    );
    assert_eq!(
        serial.stats, async_slow.stats,
        "a slow consumer must not change any refresh decision"
    );
    assert_eq!(
        serial.stats, pipelined.stats,
        "pipelined epochs must make identical refresh decisions"
    );
    assert_eq!(
        serial.stats, untraced.stats,
        "disabling tracing must not change any refresh decision"
    );
    assert_eq!(
        serial.stats, observed.stats,
        "a live introspection scraper must not change any refresh decision"
    );
    assert_eq!(
        serial.stats, reorder_base.stats,
        "the reorder probe's no-buffer baseline must make identical refresh decisions"
    );
    assert_eq!(
        serial.stats, reorder_buffered.stats,
        "an in-order stream through the reorder buffer must change nothing: no \
         re-sequencing, no shedding, identical refresh decisions"
    );
    // The shared-plans probes must be decision-identical — the
    // per_subscription gate is a pure cost comparison, never a behaviour
    // change — and the clustered run must actually have clustered.
    assert_eq!(
        shared_on.stats, shared_off.stats,
        "plan clustering must make identical refresh decisions"
    );
    assert!(
        shared_on.covering_evaluations() > 0 && shared_on.shared_refreshes() > 0,
        "the shared-plans scenario never shared a covering run"
    );
    assert!(
        shared_on.gain_evaluations < shared_off.gain_evaluations,
        "the clustered path performed no fewer scoring passes ({} vs {})",
        shared_on.gain_evaluations,
        shared_off.gain_evaluations,
    );

    let gates = [
        Gate {
            name: "sharded",
            measured: ms(sharded.elapsed),
            allowed: ms(serial.elapsed) * (1.0 + tolerance),
            unit: "ms",
            subscriptions: scenario.queries.len(),
            explanation: "sharded refresh regressed past the serial managed path",
        },
        Gate {
            name: "async",
            measured: ms(async_slow.ingest_return),
            allowed: ms(async_fast.ingest_return) * (1.0 + async_tolerance),
            unit: "ms",
            subscriptions: scenario.queries.len(),
            explanation: "ingest-return latency depends on consumer speed — the pipeline is \
                 back-pressuring on delivery",
        },
        Gate {
            name: "pipelined",
            measured: ms(pipelined.ingest_interval()),
            allowed: ms(async_fast.ingest_interval()) * (1.0 + pipeline_tolerance),
            unit: "ms",
            subscriptions: scenario.queries.len(),
            explanation:
                "pipelined ingest-to-ingest interval regressed past the depth-1 barrier — \
                 index writes are re-serialising behind refresh compute",
        },
        Gate {
            name: "telemetry",
            measured: ms(pipelined.ingest_interval()),
            allowed: ms(untraced.ingest_interval()) * (1.0 + telemetry_tolerance),
            unit: "ms",
            subscriptions: scenario.queries.len(),
            explanation: "tracing-on ingest interval regressed past the tracing-off run — \
                 instrumentation has left the relaxed-atomic/ring-push budget",
        },
        Gate {
            name: "reorder",
            measured: ms(reorder_buffered.elapsed),
            allowed: ms(reorder_base.elapsed) * (1.0 + reorder_tolerance),
            unit: "ms",
            subscriptions: scenario.queries.len(),
            explanation: "the reorder buffer costs more than its budget on a clean in-order \
                 stream — the resilience front end is taxing the healthy path",
        },
        Gate {
            name: "obs",
            measured: ms(observed.ingest_interval()),
            allowed: ms(pipelined.ingest_interval()) * (1.0 + obs_tolerance),
            unit: "ms",
            subscriptions: scenario.queries.len(),
            explanation: "the pipelined interval regressed under a live introspection scraper — \
                 serving /metrics is contending with the ingest hot path",
        },
        // Also deterministic: the LCG-seeded Zipf population makes both
        // probes' scoring-pass totals exact, so the required factor is a
        // hard floor, not a tolerance band.
        Gate {
            name: "per_subscription",
            measured: shared_on.passes_per_subscription(),
            allowed: shared_off.passes_per_subscription() / shared_factor,
            unit: "passes/subscription",
            subscriptions: shared_scenario.queries.len(),
            explanation: "clustered refresh no longer saves the required factor in scoring \
                 passes per subscription — covering runs are not being shared",
        },
    ];

    let json = format!(
        concat!(
            "{{\n",
            "  \"scenario\": {{ \"elements\": {}, \"subscriptions\": {}, \"slides\": {} }},\n",
            "  \"recompute_ms\": {:.3},\n",
            "  \"delta_serial_ms\": {:.3},\n",
            "  \"delta_sharded_ms\": {:.3},\n",
            "  \"async_ingest_fast_consumer_ms\": {:.3},\n",
            "  \"async_ingest_slow_consumer_ms\": {:.3},\n",
            "  \"async_max_ingest_ms\": {:.3},\n",
            "  \"async_ingest_interval_ms\": {:.4},\n",
            "  \"pipelined_ingest_interval_ms\": {:.4},\n",
            "  \"pipelined_untraced_ingest_interval_ms\": {:.4},\n",
            "  \"obs_observed_ingest_interval_ms\": {:.4},\n",
            "  \"obs_delivered\": {},\n",
            "  \"pipelined_ingest_span_ms\": {:.3},\n",
            "  \"pipelined_epochs_captured\": {},\n",
            "  \"pipelined_shard_snapshots\": {},\n",
            "  \"pipelined_cow_clones\": {},\n",
            "  \"async_delivered\": {},\n",
            "  \"async_dropped\": {},\n",
            "  \"reorder_baseline_ms\": {:.3},\n",
            "  \"reorder_buffered_ms\": {:.3},\n",
            "  \"skip_ratio\": {:.4},\n",
            "  \"shards\": {},\n",
            "  \"worker_threads\": {},\n",
            "  \"shared_subscriptions\": {},\n",
            "  \"shared_covering_evaluations\": {},\n",
            "  \"shared_refreshes\": {},\n",
            "  \"shared_gain_evaluations_clustered\": {},\n",
            "  \"shared_gain_evaluations_unclustered\": {},\n",
            "  \"shared_clustered_ms\": {:.3},\n",
            "  \"shared_unclustered_ms\": {:.3},\n",
            "  \"tolerance\": {:.2},\n",
            "  \"async_tolerance\": {:.2},\n",
            "  \"pipeline_tolerance\": {:.2},\n",
            "  \"telemetry_tolerance\": {:.2},\n",
            "  \"reorder_tolerance\": {:.2},\n",
            "  \"obs_tolerance\": {:.2},\n",
            "  \"shared_factor\": {:.2},\n",
            "  \"gate\": \"{}\",\n",
            "  \"async_gate\": \"{}\",\n",
            "  \"pipelined_gate\": \"{}\",\n",
            "  \"telemetry_gate\": \"{}\",\n",
            "  \"reorder_gate\": \"{}\",\n",
            "  \"obs_gate\": \"{}\",\n",
            "  \"per_subscription_gate\": \"{}\"\n",
            "}}\n"
        ),
        scenario.stream.len(),
        scenario.queries.len(),
        serial.stats.slides,
        ms(recompute.elapsed),
        ms(serial.elapsed),
        ms(sharded.elapsed),
        ms(async_fast.ingest_return),
        ms(async_slow.ingest_return),
        ms(async_slow.max_ingest_return),
        ms(async_fast.ingest_interval()),
        ms(pipelined.ingest_interval()),
        ms(untraced.ingest_interval()),
        ms(observed.ingest_interval()),
        observed.delivered,
        ms(pipelined.ingest_span),
        pipelined.snapshots.epochs_captured,
        pipelined.snapshots.shard_snapshots,
        pipelined.cow_clones,
        async_slow.delivered,
        async_slow.dropped,
        ms(reorder_base.elapsed),
        ms(reorder_buffered.elapsed),
        sharded.skip_ratio(),
        sharded.shard_stats.len(),
        threads,
        shared_on.subscriptions,
        shared_on.covering_evaluations(),
        shared_on.shared_refreshes(),
        shared_on.gain_evaluations,
        shared_off.gain_evaluations,
        ms(shared_on.elapsed),
        ms(shared_off.elapsed),
        tolerance,
        async_tolerance,
        pipeline_tolerance,
        telemetry_tolerance,
        reorder_tolerance,
        obs_tolerance,
        shared_factor,
        if gates[0].passed() { "pass" } else { "fail" },
        if gates[1].passed() { "pass" } else { "fail" },
        if gates[2].passed() { "pass" } else { "fail" },
        if gates[3].passed() { "pass" } else { "fail" },
        if gates[4].passed() { "pass" } else { "fail" },
        if gates[5].passed() { "pass" } else { "fail" },
        if gates[6].passed() { "pass" } else { "fail" },
    );
    std::fs::write(&out_path, &json).expect("write BENCH_continuous.json");
    print!("{json}");
    if let Some(json_path) = &json_path {
        let mut records = String::from("{\n  \"gates\": [\n");
        for (i, gate) in gates.iter().enumerate() {
            records.push_str(&format!(
                "    {{ \"gate\": \"{}\", \"measured\": {:.3}, \"allowed\": {:.3}, \
                 \"unit\": \"{}\", \"subscriptions\": {}, \"passed\": {} }}{}\n",
                gate.name,
                gate.measured,
                gate.allowed,
                gate.unit,
                gate.subscriptions,
                gate.passed(),
                if i + 1 == gates.len() { "" } else { "," },
            ));
        }
        records.push_str("  ]\n}\n");
        std::fs::write(json_path, records).expect("write gate-records JSON");
    }
    eprintln!(
        "perf_gate: recompute {:.0} ms | serial {:.0} ms | sharded {:.0} ms \
         ({:.1}% evals skipped, {} shards, {} worker threads)",
        ms(recompute.elapsed),
        ms(serial.elapsed),
        ms(sharded.elapsed),
        100.0 * sharded.skip_ratio(),
        sharded.shard_stats.len(),
        threads,
    );
    eprintln!(
        "perf_gate: async ingest-return fast {:.0} ms vs slow-consumer {:.0} ms \
         (max slide {:.2} ms, {} delivered / {} dropped)",
        ms(async_fast.ingest_return),
        ms(async_slow.ingest_return),
        ms(async_slow.max_ingest_return),
        async_slow.delivered,
        async_slow.dropped,
    );
    eprintln!(
        "perf_gate: ingest-to-ingest interval {:.3} ms pipelined (depth 2) vs {:.3} ms barrier \
         (depth 1); {} epochs captured, {} shard snapshots, {} cow clones",
        ms(pipelined.ingest_interval()),
        ms(async_fast.ingest_interval()),
        pipelined.snapshots.epochs_captured,
        pipelined.snapshots.shard_snapshots,
        pipelined.cow_clones,
    );
    eprintln!(
        "perf_gate: telemetry tracing-on interval {:.3} ms vs tracing-off {:.3} ms",
        ms(pipelined.ingest_interval()),
        ms(untraced.ingest_interval()),
    );
    eprintln!(
        "perf_gate: obs-scraped interval {:.3} ms vs unobserved {:.3} ms",
        ms(observed.ingest_interval()),
        ms(pipelined.ingest_interval()),
    );
    eprintln!(
        "perf_gate: reorder-buffer overhead on a clean stream: {:.0} ms buffered (horizon 8) \
         vs {:.0} ms direct",
        ms(reorder_buffered.elapsed),
        ms(reorder_base.elapsed),
    );
    eprintln!(
        "perf_gate: shared plans over {} subscriptions: {:.2} passes/subscription clustered vs \
         {:.2} unclustered ({} covering runs served {} shared refreshes; {:.0} ms vs {:.0} ms)",
        shared_on.subscriptions,
        shared_on.passes_per_subscription(),
        shared_off.passes_per_subscription(),
        shared_on.covering_evaluations(),
        shared_on.shared_refreshes(),
        ms(shared_on.elapsed),
        ms(shared_off.elapsed),
    );
    let mut pass = true;
    for gate in &gates {
        pass &= gate.report();
    }
    if !pass {
        std::process::exit(1);
    }
}
