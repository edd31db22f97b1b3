//! The four workloads, run untraced (end-to-end metrics) or traced
//! (per-layer host time), plus the output checks every run makes.
//!
//! A run is a closed loop on one thread: one member at a time, back to
//! back. A member is one fleet machine (`ring_fleet::run_member`) or
//! one bare micro-world build and run. Each workload draws a fixed
//! block of members from the seed and runs the block in passes until
//! the time is up, so every pass does identical simulated work: the
//! merged-snapshot hash must repeat on every pass, and simulated counts
//! taken over whole passes repeat exactly.

use std::time::{Duration, Instant};

use ring_chaos::{mix_seed, FaultPlan};
use ring_cpu::machine::{Machine, RunExit, StepOutcome};
use ring_cpu::testkit::World;
use ring_fleet::report::fnv1a64;
use ring_fleet::{
    build_image, run_fleet, run_member, ChaosParams, FleetConfig, MachineResult, MachineSpec,
    SupervisorConfig, WorkloadMix,
};
use ring_metrics::MetricsSnapshot;
use ring_os::boot::{BootImage, System};
use ring_os::workload::{install_page_storm, micro, StormSpec};

use crate::trace::Trace;

/// Instruction budget of one micro-world run (far above any member).
const MICRO_BUDGET: u64 = 10_000_000;

/// Supervisor checkpoint cadence for `fleet_chaos`, in simulated
/// cycles. A member runs a few thousand cycles, so the default cadence
/// (250k) would never checkpoint; this one checkpoints several times
/// per member.
const CHAOS_CHECKPOINT_EVERY: u64 = 250;

/// Mean simulated cycles between injected faults in `fleet_chaos`.
const CHAOS_MEAN_INTERVAL: u64 = 1_000;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Bare micro-worlds: instruction execution and hardware ring
    /// crossings, no OS.
    SingleExec,
    /// Page-storm fleet under a chaos campaign with frequent
    /// checkpoints: ring-0 paging, checkpoints and recovery.
    FleetChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::SingleExec, Workload::FleetChaos];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SingleExec => "single_exec",
            Workload::FleetChaos => "fleet_chaos",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Members in the block a pass runs (full-size runs).
    pub fn block(self) -> usize {
        match self {
            Workload::SingleExec => 240,
            Workload::FleetChaos => 250,
        }
    }
}

/// The micro-world kinds of `single_exec`, run round-robin (the
/// discriminant is the index into [`Micro::ALL`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Micro {
    /// `ring_os::workload::micro::tight_loop`.
    TightLoop,
    /// `ring_os::workload::micro::indirect_chain`.
    IndirectChain,
    /// `ring_os::workload::micro::gate_storm`.
    GateStorm,
}

impl Micro {
    /// Every kind, in round-robin order.
    pub const ALL: [Micro; 3] = [Micro::TightLoop, Micro::IndirectChain, Micro::GateStorm];

    /// Name of the `ring_os::workload::micro` function that builds it.
    pub fn name(self) -> &'static str {
        match self {
            Micro::TightLoop => "tight_loop",
            Micro::IndirectChain => "indirect_chain",
            Micro::GateStorm => "gate_storm",
        }
    }

    /// Base loop iterations, chosen so each kind runs about ten
    /// thousand instructions per member.
    fn base_iters(self) -> u64 {
        match self {
            Micro::TightLoop | Micro::IndirectChain => 2_000,
            Micro::GateStorm => 1_250,
        }
    }

    fn build(self, fastpath: bool, iters: u64) -> World {
        match self {
            Micro::TightLoop => micro::tight_loop(fastpath, iters),
            Micro::IndirectChain => micro::indirect_chain(fastpath, iters),
            Micro::GateStorm => micro::gate_storm(fastpath, iters),
        }
    }
}

/// One micro-world member.
#[derive(Clone, Copy, Debug)]
struct MicroSpec {
    kind: Micro,
    iters: u64,
}

/// What a member produced; traced and untraced runs must agree on
/// every field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub instructions: u64,
    pub cycles: u64,
    pub halted: bool,
    pub completed: bool,
    pub quarantined: bool,
    pub restarts: u32,
    pub dirty_pages: u32,
}

impl Outcome {
    fn of(r: &MachineResult) -> Outcome {
        Outcome {
            instructions: r.instructions,
            cycles: r.cycles,
            halted: r.halted,
            completed: r.completed,
            quarantined: r.health.is_quarantined(),
            restarts: r.health.restarts,
            dirty_pages: r.dirty_pages,
        }
    }
}

enum Block {
    Micro(Vec<MicroSpec>),
    /// Every fleet workload runs one workload kind, so one image.
    Fleet {
        cfg: Box<FleetConfig>,
        specs: Vec<MachineSpec>,
        image: Option<BootImage>,
    },
}

/// A workload's member block, set up and ready to run.
pub struct Bench {
    workload: Workload,
    block: Block,
    /// Host seconds of each set-up: once before the timed phase and
    /// once more after every pass, so that its median spans the same
    /// host conditions as the passes. (Back-to-back repeats would reuse
    /// the memory just freed and read several times too cheap.)
    pub setup_s: Vec<f64>,
}

/// How long the timed phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// Whole passes until this much host time has gone.
    Seconds(f64),
    /// Exactly this many passes.
    Passes(usize),
}

/// Everything the timed phase measured and checked.
pub struct Run {
    /// Per pass: the median and 90th-percentile host ns of a member.
    pub pass_member_p50_ns: Vec<u64>,
    /// See `pass_member_p50_ns`.
    pub pass_member_p90_ns: Vec<u64>,
    /// Host ns of each pass (members plus the snapshot fold).
    pub pass_ns: Vec<u64>,
    /// Simulated instructions of one pass.
    pub pass_instructions: u64,
    /// Simulated cycles of one pass.
    pub pass_cycles: u64,
    /// Per-member outcomes of the first pass.
    pub outcomes: Vec<Outcome>,
    /// Merged snapshot of the first pass.
    pub merged: MetricsSnapshot,
    /// FNV-1a hash of the merged snapshot's JSON.
    pub hash: u64,
    /// Members run.
    pub attempted: u64,
    /// Members that failed an output check.
    pub failed: u64,
    /// Failure descriptions (first few).
    pub errors: Vec<String>,
}

impl Run {
    /// Counts `n` failed members, keeping the first few descriptions.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

/// Host-time layer totals of a traced run beyond the span trace.
#[derive(Default)]
pub struct Layers {
    /// The spans.
    pub trace: Trace,
    /// Host ns of whole traced members.
    pub member_ns: u64,
    /// Per micro kind: run ns and instructions.
    pub micro_run: [(u64, u64); Micro::ALL.len()],
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Steps `m` exactly as `Machine::run` (no watermark) or
/// `Machine::run_to_cycle` would, timing each step that executes in
/// the ring-0 trap segment as the native dispatcher of vector = word
/// number, and the remainder as instruction execution.
fn run_steps(m: &mut Machine, watermark: Option<u64>, budget: u64, tr: &mut Trace) -> RunExit {
    let trap_seg = m.config().trap_segno;
    let vector_base = m.config().trap_vector_base;
    let start = Instant::now();
    let traps_before = tr.trap_ns();
    let mut exit = RunExit::BudgetExhausted;
    for _ in 0..budget {
        if watermark.is_some_and(|w| m.cycles() >= w) {
            exit = RunExit::CycleLimit;
            break;
        }
        let ipr = m.ipr();
        let outcome = if ipr.addr.segno == trap_seg {
            let t = Instant::now();
            let o = m.step();
            tr.trap(
                ipr.addr.wordno.value().wrapping_sub(vector_base),
                t.elapsed(),
            );
            o
        } else {
            m.step()
        };
        if outcome == StepOutcome::Halted {
            exit = match m.double_fault() {
                Some(f) => RunExit::DoubleFault(f),
                None => RunExit::Halted,
            };
            break;
        }
    }
    let trap = Duration::from_nanos(tr.trap_ns() - traps_before);
    tr.add("ring_cpu.exec", start.elapsed().saturating_sub(trap));
    exit
}

/// Replays attempt 0 of `ring_fleet::run_supervised` from public calls:
/// checkpoint-cadence slices under the watchdog, invariants checked and
/// a checkpoint captured at every slice boundary. Returns whether the
/// attempt halted cleanly; any other end means the supervisor restarts
/// the member.
fn supervised_attempt0(sys: &mut System, cfg: &FleetConfig, tr: &mut Trace) -> bool {
    let sup = &cfg.supervisor;
    let mut budget_left = cfg.budget;
    let mut latest = None;
    loop {
        let cycles = sys.machine.cycles();
        if cycles >= sup.watchdog_cycles {
            return false;
        }
        let watermark = (cycles / sup.checkpoint_every + 1)
            .saturating_mul(sup.checkpoint_every)
            .min(sup.watchdog_cycles);
        let before = sys.machine.stats().instructions;
        let exit = run_steps(&mut sys.machine, Some(watermark), budget_left, tr);
        budget_left -= sys.machine.stats().instructions - before;
        match exit {
            RunExit::Halted => {
                return tr
                    .time("ring_os.check_invariants", || sys.check_invariants())
                    .is_ok()
            }
            RunExit::DoubleFault(_) | RunExit::BudgetExhausted => return false,
            RunExit::CycleLimit => {
                if tr
                    .time("ring_os.check_invariants", || sys.check_invariants())
                    .is_err()
                {
                    return false;
                }
                // Held like the supervisor's latest good checkpoint, so
                // the previous one is dropped here too.
                latest.replace(tr.time("ring_os.checkpoint", || sys.checkpoint()));
            }
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let k = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[k - 1]
}

/// Median of a sample of floats.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

impl Bench {
    /// The `fleet_chaos` fleet: default page-storm shape, one worker
    /// thread (the benchmark calls `run_member` itself, one member at a
    /// time), and a chaos campaign seeded from `seed`.
    fn fleet_config(seed: u64, machines: usize) -> FleetConfig {
        FleetConfig {
            machines,
            threads: 1,
            seed: mix_seed(seed, 0xF1EE_75EE),
            mix: WorkloadMix::PageStorm,
            supervisor: SupervisorConfig {
                chaos: Some(ChaosParams {
                    seed: mix_seed(seed, 0xC4A0_5EED),
                    mean_interval: CHAOS_MEAN_INTERVAL,
                }),
                checkpoint_every: CHAOS_CHECKPOINT_EVERY,
                ..SupervisorConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    /// Sets up `workload` for `seed` with a block of `members`.
    pub fn new(workload: Workload, seed: u64, members: usize) -> Bench {
        let block = if workload == Workload::SingleExec {
            Block::Micro(
                (0..members)
                    .map(|i| {
                        let kind = Micro::ALL[i % Micro::ALL.len()];
                        let jitter = mix_seed(seed, i as u64) % (kind.base_iters() / 2);
                        MicroSpec {
                            kind,
                            iters: kind.base_iters() + jitter,
                        }
                    })
                    .collect(),
            )
        } else {
            let cfg = Bench::fleet_config(seed, members);
            Block::Fleet {
                specs: cfg.specs(),
                cfg: Box::new(cfg),
                image: None,
            }
        };
        let mut bench = Bench {
            workload,
            block,
            setup_s: Vec::new(),
        };
        let image = bench.set_up();
        if let Block::Fleet { image: slot, .. } = &mut bench.block {
            *slot = image;
        }
        bench
    }

    /// One timed set-up: everything that must exist before the first
    /// member runs. For a fleet that is its boot image, which it
    /// returns; for `single_exec`, building and assembling one world of
    /// each kind.
    fn set_up(&mut self) -> Option<BootImage> {
        let t = Instant::now();
        let image = match &self.block {
            Block::Micro(_) => {
                for kind in Micro::ALL {
                    std::hint::black_box(kind.build(true, kind.base_iters()));
                }
                None
            }
            Block::Fleet { cfg, .. } => Some(build_image(cfg, cfg.mix.kind(0))),
        };
        self.setup_s.push(t.elapsed().as_secs_f64());
        image
    }

    /// Whether set-up builds a boot image (fleets do).
    pub fn builds_image(&self) -> bool {
        matches!(self.block, Block::Fleet { .. })
    }

    fn members(&self) -> usize {
        match &self.block {
            Block::Micro(specs) => specs.len(),
            Block::Fleet { specs, .. } => specs.len(),
        }
    }

    /// Whether member `o` passes the output check for this workload.
    fn member_ok(&self, o: &Outcome) -> bool {
        match self.workload {
            // Chaos recovery may confine a damaged process, so a clean
            // halt (or a quarantine) is the health criterion.
            Workload::FleetChaos => o.halted || o.quarantined,
            Workload::SingleExec => o.halted,
        }
    }

    /// Runs member `i` untraced.
    fn member(&self, i: usize) -> (Outcome, MetricsSnapshot) {
        match &self.block {
            Block::Micro(specs) => {
                let spec = specs[i];
                let mut w = spec.kind.build(true, spec.iters);
                let exit = w.machine.run(MICRO_BUDGET);
                (
                    micro_outcome(&w.machine, exit),
                    w.machine.metrics_snapshot(),
                )
            }
            Block::Fleet { cfg, specs, image } => {
                let spec = specs[i];
                let r = run_member(image.as_ref().expect("set up"), cfg, spec);
                (Outcome::of(&r), r.snapshot)
            }
        }
    }

    /// Runs member `i` traced: the same calls as [`Bench::member`],
    /// with a span around each layer's public entry point.
    fn member_traced(&self, i: usize, layers: &mut Layers) -> (Outcome, MetricsSnapshot) {
        let tr = &mut layers.trace;
        match &self.block {
            Block::Micro(specs) => {
                let spec = specs[i];
                let mut w = tr.time("ring_os.micro_build", || spec.kind.build(true, spec.iters));
                let t = Instant::now();
                let exit = run_steps(&mut w.machine, None, MICRO_BUDGET, tr);
                let k = spec.kind as usize;
                layers.micro_run[k].0 += ns(t.elapsed());
                layers.micro_run[k].1 += w.machine.stats().instructions;
                let snap = tr.time("ring_metrics.snapshot", || w.machine.metrics_snapshot());
                (micro_outcome(&w.machine, exit), snap)
            }
            Block::Fleet { cfg, specs, image } => {
                let spec = specs[i];
                let image = image.as_ref().expect("set up");
                let mut sys = tr.time("ring_os.boot_from_image", || System::boot_from_image(image));
                // Exactly `ring_fleet`'s member install for a page storm.
                let storm = StormSpec {
                    procs: cfg.procs,
                    pages: cfg.pages,
                    rounds: spec.rounds,
                };
                let procs = tr.time("ring_os.install", || install_page_storm(&mut sys, &storm));
                sys.enable_metrics();
                sys.machine.set_timer(Some(cfg.quantum));
                let chaos = cfg.supervisor.chaos.expect("fleet_chaos arms a campaign");
                sys.enable_chaos(FaultPlan::Campaign {
                    seed: mix_seed(mix_seed(chaos.seed, spec.seed), 0),
                    mean_interval: chaos.mean_interval,
                });
                if !supervised_attempt0(&mut sys, cfg, tr) {
                    // The supervisor restarts this member from a
                    // checkpoint; time its whole supervised run.
                    let t = Instant::now();
                    let r = run_member(image, cfg, spec);
                    tr.add("ring_fleet.restart", t.elapsed());
                    return (Outcome::of(&r), r.snapshot);
                }
                let st = sys.state.borrow();
                let all_exited = procs
                    .iter()
                    .all(|p| st.processes[p.pid].aborted.as_deref() == Some("exit"));
                drop(st);
                let snap = tr.time("ring_metrics.snapshot", || sys.metrics_snapshot());
                let o = Outcome {
                    instructions: sys.machine.stats().instructions,
                    cycles: sys.machine.cycles(),
                    halted: true,
                    completed: all_exited,
                    quarantined: false,
                    restarts: 0,
                    dirty_pages: sys.machine.phys().dirty_pages(),
                };
                (o, snap)
            }
        }
    }

    /// The timed phase: whole passes over the block until `limit`.
    /// With `layers`, every member is traced and the fold is timed.
    pub fn run(&mut self, limit: Limit, mut layers: Option<&mut Layers>) -> Run {
        let n = self.members();
        let mut run = Run {
            pass_member_p50_ns: Vec::new(),
            pass_member_p90_ns: Vec::new(),
            pass_ns: Vec::new(),
            pass_instructions: 0,
            pass_cycles: 0,
            outcomes: Vec::new(),
            merged: MetricsSnapshot::default(),
            hash: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        };
        let mut member_ns = Vec::with_capacity(n);
        let start = Instant::now();
        loop {
            member_ns.clear();
            let pass_start = Instant::now();
            let mut merged = MetricsSnapshot::default();
            let mut outcomes = Vec::with_capacity(n);
            for i in 0..n {
                let t = Instant::now();
                let (o, snap) = match layers.as_deref_mut() {
                    Some(l) => {
                        let r = self.member_traced(i, l);
                        l.member_ns += ns(t.elapsed());
                        r
                    }
                    None => self.member(i),
                };
                member_ns.push(ns(t.elapsed()));
                if !o.quarantined {
                    match layers.as_deref_mut() {
                        Some(l) => l.trace.time("ring_metrics.merge", || merged.merge(&snap)),
                        None => merged.merge(&snap),
                    }
                }
                outcomes.push(o);
            }
            let json = match layers.as_deref_mut() {
                Some(l) => l.trace.time("ring_metrics.to_json", || merged.to_json()),
                None => merged.to_json(),
            };
            let hash = fnv1a64(json.as_bytes());
            run.pass_ns.push(ns(pass_start.elapsed()));
            member_ns.sort_unstable();
            run.pass_member_p50_ns.push(percentile(&member_ns, 0.50));
            run.pass_member_p90_ns.push(percentile(&member_ns, 0.90));
            run.attempted += n as u64;
            let bad = outcomes.iter().filter(|o| !self.member_ok(o)).count() as u64;
            if bad > 0 {
                run.fail(bad, format!("{bad} member(s) failed the completion check"));
            }
            if run.pass_ns.len() == 1 {
                run.pass_instructions = outcomes.iter().map(|o| o.instructions).sum();
                run.pass_cycles = outcomes.iter().map(|o| o.cycles).sum();
                run.outcomes = outcomes;
                run.merged = merged;
                run.hash = hash;
            } else {
                let differ = outcomes
                    .iter()
                    .zip(&run.outcomes)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
                if differ > 0 || hash != run.hash {
                    run.fail(
                        differ.max(1),
                        format!("pass {} differs from pass 1", run.pass_ns.len()),
                    );
                }
            }
            self.set_up();
            let done = match limit {
                Limit::Seconds(s) => start.elapsed().as_secs_f64() >= s,
                Limit::Passes(p) => run.pass_ns.len() >= p,
            };
            if done {
                return run;
            }
        }
    }

    /// Checks the first pass against an independent reference, outside
    /// the timed phase: a fleet against `ring_fleet::run_fleet` over the
    /// same block (no member errors, equal merged hash, equal
    /// per-member results); a micro block against the reference
    /// interpreter (fast path off), which must take identical
    /// instructions and cycles.
    pub fn check_reference(&self, run: &mut Run) {
        match &self.block {
            Block::Micro(specs) => {
                for (i, spec) in specs.iter().enumerate() {
                    let mut w = spec.kind.build(false, spec.iters);
                    let exit = w.machine.run(MICRO_BUDGET);
                    let want = micro_outcome(&w.machine, exit);
                    if run.outcomes.get(i) != Some(&want) {
                        run.fail(
                            1,
                            format!(
                                "member {i}: fast path {:?} != reference {want:?}",
                                run.outcomes.get(i)
                            ),
                        );
                    }
                }
            }
            Block::Fleet { cfg, .. } => {
                let fleet = run_fleet(cfg);
                if !fleet.member_errors.is_empty() {
                    run.fail(
                        fleet.member_errors.len() as u64,
                        format!("run_fleet member errors: {:?}", fleet.member_errors),
                    );
                }
                let hash = fnv1a64(fleet.merged.to_json().as_bytes());
                if hash != run.hash {
                    run.fail(
                        1,
                        format!("merged hash {:016x} != run_fleet {hash:016x}", run.hash),
                    );
                }
                let differ = fleet
                    .machines
                    .iter()
                    .zip(&run.outcomes)
                    .filter(|(m, o)| m.instructions != o.instructions || m.cycles != o.cycles)
                    .count() as u64;
                if differ > 0 || fleet.machines.len() != run.outcomes.len() {
                    run.fail(
                        differ.max(1),
                        "per-member results differ from run_fleet".into(),
                    );
                }
            }
        }
    }
}

fn micro_outcome(m: &Machine, exit: RunExit) -> Outcome {
    Outcome {
        instructions: m.stats().instructions,
        cycles: m.cycles(),
        halted: exit == RunExit::Halted,
        completed: exit == RunExit::Halted,
        quarantined: false,
        restarts: 0,
        dirty_pages: 0,
    }
}
