//! Hostile-stream chaos sweep: every [`HostileMode`] under three fixed
//! seeds, each run checked against its sync equivalence oracle, and the
//! faults each run fired (`fired=epoch:kind@target,...`).  Exits non-zero
//! on the first report that fails, after printing every verdict.
//!
//! Usage: `chaos_harness [--full]` — `--full` replays the standard-scale
//! scenario instead of the smoke-scale default the CI job uses.
//!
//! When `CHAOS_FLIGHT_DIR` is set, each passing run's flight-recorder ring
//! (one `fault_injected` postmortem record per injected fault, plus any
//! respawn records) is dumped to `<dir>/<mode>_seed<seed>.json` — the CI
//! chaos job uploads that directory as a workflow artifact.

use ksir_chaos::{run_chaos, ChaosScale, FaultKind, Fired, HostileMode};

/// The fixed fault-plan seeds the CI `chaos` job pins.
const SEEDS: [u64; 3] = [17, 89, 1337];

/// The faults a run fired, as `epoch:kind@target` — a seed prints the same
/// list on every run.
fn fired(fired: &[Fired]) -> String {
    let one = |&(epoch, kind, shard): &Fired| {
        let at = match (kind, shard) {
            (FaultKind::PanicBeforeQuery(n), Some(shard)) => format!("@{shard}#{n}"),
            (FaultKind::PoisonDelivery(sub), _) => format!("@{sub}"),
            (_, Some(shard)) => format!("@{shard}"),
            (_, None) => String::new(),
        };
        format!("{epoch}:{}{at}", kind.name())
    };
    fired.iter().map(one).collect::<Vec<_>>().join(",")
}

fn main() {
    let full = std::env::args().any(|arg| arg == "--full");
    let scale = if full {
        ChaosScale::Standard
    } else {
        ChaosScale::Smoke
    };
    let flight_dir = std::env::var_os("CHAOS_FLIGHT_DIR").map(std::path::PathBuf::from);
    if let Some(dir) = &flight_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create CHAOS_FLIGHT_DIR {}: {e}", dir.display());
            std::process::exit(2);
        }
    }
    let mut failed = false;
    for mode in HostileMode::ALL {
        for seed in SEEDS {
            match run_chaos(mode, seed, scale) {
                Ok(report) => {
                    println!(
                        "PASS {mode:>16} seed={seed:<5} slides={slides:<3} subs={subs:<3} \
                         updates={updates:<5} delivered={delivered:<5} dropped={dropped} \
                         faults={faults} flight={flight} checks={checks} fired={fired}",
                        mode = report.mode,
                        seed = report.seed,
                        slides = report.slides,
                        subs = report.subscriptions,
                        updates = report.oracle_updates,
                        delivered = report.delivered,
                        dropped = report.dropped,
                        faults = report.faults_injected,
                        flight = report.fault_flight_records,
                        checks = report.checks,
                        fired = fired(&report.fired),
                    );
                    if let Some(dir) = &flight_dir {
                        let path = dir.join(format!("{}_seed{}.json", report.mode, report.seed));
                        if let Err(e) = std::fs::write(&path, &report.flight_json) {
                            failed = true;
                            println!("FAIL flight dump {}: {e}", path.display());
                        }
                    }
                }
                Err(reason) => {
                    failed = true;
                    println!("FAIL {:>16} seed={seed:<5} {reason}", mode.name());
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
