//! Host-time benchmark of the multiring simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <single_exec|fleet_chaos> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! the per-layer host-time metrics, and writes the spans as folded
//! stacks to `<target dir>/perfbench/<workload>.folded`. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `perfbench/README.md` describes the workloads and metrics.

mod harness;
mod trace;

use std::time::Duration;

use harness::{median, percentile, Bench, Layers, Limit, Micro, Run, Workload};
use trace::VECTORS;

/// The seed used while writing the benchmark.
pub const DEFAULT_SEED: u64 = 1;
/// A seed held out from tuning, for checking claims.
pub const HELD_OUT_SEED: u64 = 7_777;

/// End-to-end metrics: name and unit (`--trace 0`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_ips", "1/s"),
    ("member_p50_us", "us"),
    ("member_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// A finished benchmark run.
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    errors: Vec<String>,
    folded: Option<String>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The slow-side quartile of per-pass host times: the value 75% of
/// passes stay within. This host's disturbances are mostly episodes of
/// faster execution lasting seconds, so the slow quartile reads its
/// common state and repeats about twice as closely as the median.
fn slow_quartile_ns(per_pass: &[u64]) -> f64 {
    let mut sorted = per_pass.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 0.75) as f64
}

fn end_to_end(bench: &Bench, run: &Run) -> Result<Vec<Metric>, String> {
    Ok(vec![
        metric("setup_s", median(&bench.setup_s), "s"),
        metric(
            "sim_ips",
            run.pass_instructions as f64 / (slow_quartile_ns(&run.pass_ns) * 1e-9),
            "1/s",
        ),
        metric(
            "member_p50_us",
            slow_quartile_ns(&run.pass_member_p50_ns) / 1e3,
            "us",
        ),
        metric(
            "member_p90_us",
            slow_quartile_ns(&run.pass_member_p90_ns) / 1e3,
            "us",
        ),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// Spans timed inside a member (everything but the per-pass fold).
const MEMBER_SPANS: [&str; 8] = [
    "ring_os.boot_from_image",
    "ring_os.install",
    "ring_os.micro_build",
    "ring_cpu.exec",
    "ring_os.checkpoint",
    "ring_os.check_invariants",
    "ring_metrics.snapshot",
    "ring_fleet.restart",
];

fn per_layer(bench: &Bench, run: &Run, layers: &mut Layers, untraced: &Run) -> Vec<Metric> {
    let members = run.attempted;
    let passes = run.pass_ns.len() as u64;
    let tr = &mut layers.trace;
    let attributed: u64 = MEMBER_SPANS.iter().map(|s| tr.ns(s)).sum::<u64>() + tr.trap_ns();
    tr.add(
        "ring_fleet.other",
        Duration::from_nanos(layers.member_ns.saturating_sub(attributed)),
    );
    let tr = &layers.trace;
    let us_per_member = |layer: &str| ratio(tr.ns(layer), members) / 1e3;
    let n_per_member = |layer: &str| ratio(tr.n(layer), members);
    let block = run.outcomes.len() as u64;
    let per_member = |n: u64| ratio(n, block);
    // A fleet's set-up is exactly one image build.
    let image_build_us = if bench.builds_image() {
        median(&bench.setup_s) * 1e6
    } else {
        0.0
    };

    let mut out = vec![
        metric("ring_os.image_build_us", image_build_us, "us"),
        metric(
            "ring_os.boot_from_image_us",
            us_per_member("ring_os.boot_from_image"),
            "us",
        ),
        metric("ring_os.install_us", us_per_member("ring_os.install"), "us"),
        metric(
            "ring_os.micro_build_us",
            us_per_member("ring_os.micro_build"),
            "us",
        ),
    ];
    for (v, name) in VECTORS.iter().enumerate() {
        let (ns, n) = tr.trap_totals(v);
        out.push(metric(
            format!("ring_os.trap.{name}_us"),
            ratio(ns, members) / 1e3,
            "us",
        ));
        out.push(metric(
            format!("ring_os.trap.{name}_n"),
            ratio(n, members),
            "count",
        ));
    }
    out.extend([
        metric(
            "ring_os.checkpoint_us",
            us_per_member("ring_os.checkpoint"),
            "us",
        ),
        metric(
            "ring_os.checkpoint_n",
            n_per_member("ring_os.checkpoint"),
            "count",
        ),
        metric(
            "ring_os.check_invariants_us",
            us_per_member("ring_os.check_invariants"),
            "us",
        ),
        metric(
            "ring_os.check_invariants_n",
            n_per_member("ring_os.check_invariants"),
            "count",
        ),
        metric("ring_cpu.exec_us", us_per_member("ring_cpu.exec"), "us"),
    ]);
    for (k, kind) in Micro::ALL.iter().enumerate() {
        let (ns, instr) = layers.micro_run[k];
        out.push(metric(
            format!("ring_cpu.{}.ns_per_instr", kind.name()),
            ratio(ns, instr),
            "ns",
        ));
    }
    let m = &run.merged;
    let fp = &m.fastpath;
    let mut dirty: Vec<u64> = run
        .outcomes
        .iter()
        .map(|o| u64::from(o.dirty_pages))
        .collect();
    dirty.sort_unstable();
    let restarts: u64 = run.outcomes.iter().map(|o| u64::from(o.restarts)).sum();
    let quarantined = run.outcomes.iter().filter(|o| o.quarantined).count() as u64;
    out.extend([
        metric(
            "ring_cpu.fast_frac",
            ratio(fp.fast_instructions, m.instructions),
            "ratio",
        ),
        metric(
            "ring_cpu.icache_hit_frac",
            ratio(fp.icache_hits, fp.icache_hits + fp.icache_misses),
            "ratio",
        ),
        metric(
            "ring_segmem.tlb_hit_frac",
            ratio(fp.tlb_hits, fp.tlb_hits + fp.tlb_misses),
            "ratio",
        ),
        metric(
            "ring_segmem.sdw_cache_hit_frac",
            ratio(m.sdw_cache.hits, m.sdw_cache.hits + m.sdw_cache.misses),
            "ratio",
        ),
        metric(
            "ring_segmem.dirty_pages_p50",
            percentile(&dirty, 0.5) as f64,
            "pages",
        ),
        metric(
            "ring_metrics.snapshot_us",
            us_per_member("ring_metrics.snapshot"),
            "us",
        ),
        metric(
            "ring_metrics.merge_us",
            ratio(tr.ns("ring_metrics.merge"), passes) / 1e3,
            "us",
        ),
        metric(
            "ring_metrics.to_json_us",
            ratio(tr.ns("ring_metrics.to_json"), passes) / 1e3,
            "us",
        ),
        metric(
            "ring_chaos.injected_n",
            per_member(m.extra("chaos.injected").unwrap_or(0)),
            "count",
        ),
        metric(
            "ring_os.recoveries_n",
            per_member(m.extra("chaos.recovered").unwrap_or(0)),
            "count",
        ),
        metric("ring_fleet.restarts_n", per_member(restarts), "count"),
        metric("ring_fleet.quarantined_n", per_member(quarantined), "count"),
        metric(
            "ring_fleet.restart_us",
            us_per_member("ring_fleet.restart"),
            "us",
        ),
        metric(
            "ring_fleet.other_us",
            us_per_member("ring_fleet.other"),
            "us",
        ),
        metric("sim.instructions", run.pass_instructions as f64, "count"),
        metric("sim.cycles", run.pass_cycles as f64, "cycles"),
        metric(
            "trace.overhead",
            median_ns(&run.pass_ns) / median_ns(&untraced.pass_ns),
            "ratio",
        ),
    ]);
    out
}

fn median_ns(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

/// Runs `workload` end to end: set-up, the timed phase, and every
/// output check. `members` sizes the block (tests shrink it).
pub fn report(
    workload: Workload,
    seed: u64,
    limit: Limit,
    traced: bool,
    members: usize,
) -> Result<Report, String> {
    let mut bench = Bench::new(workload, seed, members);
    if !traced {
        let mut run = bench.run(limit, None);
        let metrics = end_to_end(&bench, &run)?;
        bench.check_reference(&mut run);
        return Ok(Report {
            correct: run.failed == 0,
            attempted: run.attempted,
            failed: run.failed,
            metrics,
            errors: run.errors,
            folded: None,
        });
    }
    let mut layers = Layers::default();
    let mut run = bench.run(limit, Some(&mut layers));
    // The untraced reference over the same block: the traced run must
    // reproduce it exactly, and the pass-time ratio is the overhead.
    let reference_limit = match limit {
        Limit::Seconds(s) => Limit::Seconds(s / 4.0),
        passes => passes,
    };
    let mut untraced = bench.run(reference_limit, None);
    bench.check_reference(&mut untraced);
    let differ = run
        .outcomes
        .iter()
        .zip(&untraced.outcomes)
        .filter(|(a, b)| a != b)
        .count() as u64;
    if differ > 0 || run.hash != untraced.hash {
        let what = format!(
            "traced run differs from untraced: {differ} member(s), hash {:016x} vs {:016x}",
            run.hash, untraced.hash
        );
        run.fail(differ.max(1), what);
    }
    let metrics = per_layer(&bench, &run, &mut layers, &untraced);
    let failed = run.failed + untraced.failed;
    let mut errors = run.errors;
    errors.extend(untraced.errors);
    Ok(Report {
        correct: failed == 0,
        attempted: run.attempted + untraced.attempted,
        failed,
        metrics,
        errors,
        folded: Some(layers.trace.folded(workload.name())),
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let result = parse_args().and_then(|args| {
        let r = report(
            args.workload,
            args.seed,
            Limit::Seconds(args.seconds),
            args.trace,
            args.workload.block(),
        )?;
        if let Some(folded) = &r.folded {
            let dir = std::path::Path::new(
                &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
            )
            .join("perfbench");
            let path = dir.join(format!("{}.folded", args.workload.name()));
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, folded))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("folded stacks: {}", path.display());
        }
        Ok(r)
    });
    match result {
        Ok(r) => {
            for e in &r.errors {
                eprintln!("check failed: {e}");
            }
            println!("{}", r.json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of `section` in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .map(|i| i + key.len() + 5)?;
            Some(entry[at..at + entry[at..].find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|e| {
                let name = field(e, "name").expect("entry has a name");
                (name, field(e, "unit").unwrap_or_default())
            })
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect()
    }

    fn tiny(workload: Workload, traced: bool) -> Report {
        tiny_seeded(workload, traced, DEFAULT_SEED)
    }

    fn tiny_seeded(workload: Workload, traced: bool, seed: u64) -> Report {
        let r = report(workload, seed, Limit::Passes(2), traced, 9).expect("report");
        assert!(r.correct, "{}: {:?}", workload.name(), r.errors);
        assert_eq!(r.failed, 0);
        r
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let declared: Vec<String> = declared("workloads").into_iter().map(|d| d.0).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn printed_names_match_benchmark_json_and_checks_pass() {
        let e2e = declared("end_to_end");
        let layer = declared("per_layer");
        let listed: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, listed);
        for w in Workload::ALL {
            assert_eq!(names(&tiny(w, false).metrics), e2e, "{}", w.name());
            assert_eq!(names(&tiny(w, true).metrics), layer, "{}", w.name());
        }
    }

    /// Simulated counts (`_n`, `_frac`, `sim.*`, dirty pages) repeat
    /// exactly across traced runs; each traced run also checks itself
    /// against an untraced run of the same block (hash and per-member
    /// instructions and cycles), which `tiny` asserts passed.
    #[test]
    fn traced_counts_repeat_exactly() {
        let is_count = |m: &&Metric| {
            m.name.ends_with("_n")
                || m.name.ends_with("_frac")
                || m.name.starts_with("sim.")
                || m.name == "ring_segmem.dirty_pages_p50"
        };
        for w in Workload::ALL {
            let a = tiny_seeded(w, true, HELD_OUT_SEED);
            let b = tiny_seeded(w, true, HELD_OUT_SEED);
            let ca: Vec<&Metric> = a.metrics.iter().filter(is_count).collect();
            let cb: Vec<&Metric> = b.metrics.iter().filter(is_count).collect();
            assert_eq!(ca, cb, "{}", w.name());
            assert!(ca
                .iter()
                .any(|m| m.name == "sim.instructions" && m.value > 0.0));
        }
    }

    #[test]
    fn folded_stacks_are_rooted_at_the_workload() {
        let r = tiny(Workload::FleetChaos, true);
        let folded = r.folded.expect("traced run keeps its spans");
        assert!(folded
            .lines()
            .any(|l| l.starts_with("fleet_chaos;ring_os;trap;page_fault ")));
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("stack weight");
            assert!(stack.starts_with("fleet_chaos;"), "{line}");
            assert!(weight.parse::<u64>().expect("integer weight") > 0, "{line}");
        }
    }
}
