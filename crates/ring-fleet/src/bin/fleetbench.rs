//! Fleet-scale benchmark: thousands of deterministic machines over a
//! shared copy-on-write boot image.
//!
//! ```text
//! cargo run --release -p ring-fleet --bin fleetbench [-- OPTIONS]
//!
//!   --quick          256 machines (CI smoke); default is 10,000
//!   --machines N     explicit fleet size
//!   --threads K      worker threads (default: host parallelism)
//!   --seed S         fleet seed (default 0x5EED0F1EE7)
//!   --mix M          pagestorm | gatestorm | mixed (default mixed)
//!   --chaos-seed S   arm the chaos campaign with fleet chaos seed S
//!   --chaos-rate R   mean cycles between faults (default 50000;
//!                    implies --chaos-seed 0 if not given)
//!   --out FILE       report path (default BENCH_fleet.json)
//! ```
//!
//! Misuse (`--help`, an unknown option or mix, a missing or malformed
//! value) prints the usage line and exits with status 2.
//!
//! Boots every machine from one frozen image per workload kind,
//! runs the fleet across a work-stealing queue, prints aggregate
//! simulated-instructions-per-second plus p50/p99 per-machine
//! wall-clock, and writes a `ring-fleet/bench/v2` JSON report whose
//! `merged_snapshot_hash` — and, under chaos, health report and
//! quarantine hash — are bit-stable across `--threads` values for a
//! fixed seed — the determinism contract CI enforces.

use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

use ring_fleet::report::{fleet_json, fnv1a64, HealthReport, Percentiles};
use ring_fleet::{run_fleet, ChaosParams, FleetConfig, WorkloadMix};

const USAGE: &str = "usage: fleetbench [--quick] [--machines N] [--threads K] [--seed S] \
[--mix pagestorm|gatestorm|mixed] [--chaos-seed S] [--chaos-rate R] [--out FILE]";

/// Parsed command line.
struct Cli {
    cfg: FleetConfig,
    quick: bool,
    out: String,
}

/// Parses option `opt`'s numeric value `v`.
fn number<T: FromStr>(opt: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{opt}: not a number: {v:?}"))
}

/// Parses the arguments; `Err` carries the complaint to print above
/// the usage line.
fn parse(args: &[String]) -> Result<Cli, String> {
    let quick = args.iter().any(|a| a == "--quick");
    let mut cfg = FleetConfig {
        machines: if quick { 256 } else { 10_000 },
        ..FleetConfig::default()
    };
    let mut out = "BENCH_fleet.json".to_string();
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_rate: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} takes a value"));
        match a.as_str() {
            "--quick" => {}
            "--machines" => cfg.machines = number(a, value()?)?,
            "--threads" => cfg.threads = number(a, value()?)?,
            "--seed" => cfg.seed = number(a, value()?)?,
            "--mix" => {
                cfg.mix = match value()?.as_str() {
                    "pagestorm" => WorkloadMix::PageStorm,
                    "gatestorm" => WorkloadMix::GateStorm,
                    "mixed" => WorkloadMix::Mixed,
                    other => return Err(format!("unknown mix {other:?}")),
                }
            }
            "--chaos-seed" => chaos_seed = Some(number(a, value()?)?),
            "--chaos-rate" => chaos_rate = Some(number(a, value()?)?),
            "--out" => out = value()?.clone(),
            "--help" | "-h" => return Err("fleet-scale benchmark".to_string()),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if chaos_seed.is_some() || chaos_rate.is_some() {
        cfg.supervisor.chaos = Some(ChaosParams {
            seed: chaos_seed.unwrap_or(0),
            mean_interval: chaos_rate.unwrap_or(50_000).max(1),
        });
    }
    Ok(Cli { cfg, quick, out })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Cli { cfg, quick, out } = match parse(&args) {
        Ok(cli) => cli,
        Err(complaint) => {
            eprintln!("fleetbench: {complaint}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let result = run_fleet(&cfg);
    let completed = result.machines.iter().filter(|m| m.completed).count();
    let instructions: u64 = result.machines.iter().map(|m| m.instructions).sum();
    let wall_ns: Vec<u64> = result.machines.iter().map(|m| m.wall_ns).collect();
    let wall = Percentiles::of(&wall_ns);
    let dirty: Vec<u64> = result
        .machines
        .iter()
        .map(|m| u64::from(m.dirty_pages))
        .collect();
    let dirty_stats = Percentiles::of(&dirty);
    let image_pages = result.image_words.div_ceil(ring_segmem::COW_PAGE_WORDS);
    let hash = fnv1a64(result.merged.to_json().as_bytes());

    let mut summary = format!(
        "fleet: {} machines, {} threads, seed {:#x}\n",
        result.machines.len(),
        result.threads,
        cfg.seed
    );
    summary += &format!(
        "  completed {completed}/{}, {instructions} instructions in {:.3}s host \
         ({:.0} aggregate ips)\n",
        result.machines.len(),
        result.wall_seconds,
        instructions as f64 / result.wall_seconds.max(1e-9),
    );
    summary += &format!(
        "  per-machine wall-clock: p50 {:.3}ms  p99 {:.3}ms  max {:.3}ms\n",
        wall.p50 as f64 / 1e6,
        wall.p99 as f64 / 1e6,
        wall.max as f64 / 1e6,
    );
    summary += &format!(
        "  cow image: {} pages shared, dirty p50 {} p99 {} per machine\n",
        image_pages, dirty_stats.p50, dirty_stats.p99,
    );
    summary += &format!("  merged snapshot hash: fnv1a64:{hash:016x}\n");
    let health = HealthReport::of(&result.machines);
    if cfg.supervisor.chaos.is_some() {
        summary += &format!(
            "  chaos: {} ring-0 recoveries, {} restarts on {} machines \
             (mean {:.0} cycles to recover), {} quarantined\n",
            health.recoveries,
            health.restarts_total,
            health.restarted_machines,
            health.mean_cycles_to_recover(),
            health.quarantined.len(),
        );
        summary += &format!(
            "  quarantine hash: fnv1a64:{:016x}\n",
            health.quarantine_hash()
        );
    }

    if let Err(e) = std::fs::write(&out, fleet_json(&cfg, &result, quick)) {
        eprintln!("fleetbench: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    summary += &format!("wrote {out}\n");
    // A reader that goes away early (`| head`) is not an error.
    let _ = std::io::stdout().lock().write_all(summary.as_bytes());

    if !result.member_errors.is_empty() {
        eprintln!(
            "fleetbench: host-side member errors: {:?}",
            result.member_errors
        );
        return ExitCode::FAILURE;
    }
    // Under chaos, killed (confined) processes make `completed` too
    // strict; health means every machine either halted cleanly or was
    // explicitly quarantined.
    let healthy = if cfg.supervisor.chaos.is_some() {
        result
            .machines
            .iter()
            .all(|m| m.halted || m.health.is_quarantined())
    } else {
        completed == result.machines.len()
    };
    if !healthy {
        eprintln!(
            "fleetbench: every machine must {}",
            if cfg.supervisor.chaos.is_some() {
                "halt or be quarantined"
            } else {
                "run its workload to completion"
            }
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
