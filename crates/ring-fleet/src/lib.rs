//! A fleet of deterministic ring machines sharing one boot image.
//!
//! The paper's hardware was designed for a time-sharing utility
//! serving a whole community; this crate supplies the community. It
//! runs N independent simulated machines — each a full
//! multiprogramming kernel ([`ring_os`]) with its own processes,
//! scheduler, and demand paging — across host threads with a
//! work-stealing run queue ([`queue::RunQueue`]), and rolls their
//! [`ring_metrics::MetricsSnapshot`]s up into one fleet snapshot.
//!
//! Per-machine footprint is near zero: a prototype system is booted
//! and its workload installed once per workload kind, then frozen
//! into a shared read-only [`BootImage`] that also holds the installed
//! prototype as a ready checkpoint. Every fleet member is that
//! checkpoint restored over a copy-on-write view of the image
//! ([`ring_segmem::PhysMem::cow`]) plus its own delta, the round count
//! of each process ([`boot_member`]). It installs nothing, and its
//! private cost is only the pages its own execution writes.
//!
//! # Determinism contract
//!
//! Every machine is seeded from the fleet seed and its index alone,
//! and host threading never touches simulated state: workers boot and
//! run whole machines locally, and the merged snapshot is folded in
//! machine-index order after every worker has joined. A fleet run
//! with K worker threads is therefore bit-identical — merged snapshot
//! JSON included — to the same seeds on 1 thread, and any single
//! member is bit-identical to the same spec run standalone on a flat
//! (non-CoW) memory. `docs/FLEET.md` states the contract precisely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod report;
pub mod supervisor;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use ring_cpu::machine::RunExit;
use ring_metrics::MetricsSnapshot;
use ring_os::boot::{BootImage, System, SystemConfig};
use ring_os::workload::{install_gate_storm, install_page_storm, GateStormSpec, StormSpec};

pub use ring_chaos::{FailureClass, MachineFailure};
pub use supervisor::{run_supervised, ChaosParams, MachineHealth, SupervisorConfig};

/// Which canned workload a machine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Demand-paging storm: processes sweep private paged segments
    /// under frame pressure ([`install_page_storm`]).
    PageStorm,
    /// Ring-crossing storm: processes hammer the ring-1 accounting
    /// gate ([`install_gate_storm`]).
    GateStorm,
}

impl WorkloadKind {
    /// Stable lowercase name (report keys, CLI values).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PageStorm => "pagestorm",
            WorkloadKind::GateStorm => "gatestorm",
        }
    }
}

/// Workload assignment across the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadMix {
    /// Every machine runs the page storm.
    PageStorm,
    /// Every machine runs the gate storm.
    GateStorm,
    /// Even machine indices page, odd indices hammer gates.
    Mixed,
}

impl WorkloadMix {
    /// The workload for machine `id` under this mix.
    pub fn kind(self, id: usize) -> WorkloadKind {
        match self {
            WorkloadMix::PageStorm => WorkloadKind::PageStorm,
            WorkloadMix::GateStorm => WorkloadKind::GateStorm,
            WorkloadMix::Mixed => {
                if id.is_multiple_of(2) {
                    WorkloadKind::PageStorm
                } else {
                    WorkloadKind::GateStorm
                }
            }
        }
    }
}

/// Shape of a fleet run.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of machines.
    pub machines: usize,
    /// Worker threads; 0 picks the host's available parallelism.
    pub threads: usize,
    /// Fleet seed; each machine's seed derives from this and its index.
    pub seed: u64,
    /// Workload assignment.
    pub mix: WorkloadMix,
    /// Processes per machine.
    pub procs: usize,
    /// Pages per page-storm process's data segment.
    pub pages: u32,
    /// Minimum workload rounds per process.
    pub base_rounds: u32,
    /// Seed-derived extra rounds in `0..=jitter` (per-machine variety;
    /// zero makes every machine of a kind identical).
    pub rounds_jitter: u32,
    /// Scheduler quantum in cycles.
    pub quantum: u64,
    /// Physical frame budget for demand paging.
    pub frames: u32,
    /// Per-machine cycle budget; a machine that exhausts it reports
    /// `completed: false`.
    pub budget: u64,
    /// Physical words per machine (image size; keep small for fleets).
    pub phys_words: usize,
    /// Fast-path execution engine switch.
    pub fastpath: bool,
    /// Self-healing supervisor policy (chaos campaign, checkpoint
    /// cadence, restart budget). With `supervisor.chaos == None` and no
    /// kill injector, machines run exactly as an unsupervised fleet.
    pub supervisor: SupervisorConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            machines: 256,
            threads: 0,
            seed: 0x005E_ED0F_1EE7,
            mix: WorkloadMix::Mixed,
            procs: 2,
            pages: 5,
            base_rounds: 6,
            rounds_jitter: 6,
            quantum: 2_000,
            frames: 6,
            budget: 5_000_000,
            phys_words: 1 << 17,
            fastpath: true,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// One machine's derived identity: everything needed to reproduce its
/// run in isolation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineSpec {
    /// Fleet index.
    pub id: usize,
    /// Machine seed (splitmix64 of fleet seed and index).
    pub seed: u64,
    /// Assigned workload.
    pub kind: WorkloadKind,
    /// Workload rounds per process (base plus seed-derived jitter).
    pub rounds: u32,
}

/// The splitmix64 scramble — the standard seed-spreading finalizer, so
/// adjacent machine indices get uncorrelated seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FleetConfig {
    /// The derived spec for machine `id`.
    pub fn spec(&self, id: usize) -> MachineSpec {
        let seed = splitmix64(self.seed ^ (id as u64).wrapping_mul(0xA5A5_A5A5_A5A5_A5A5));
        MachineSpec {
            id,
            seed,
            kind: self.mix.kind(id),
            rounds: self.base_rounds + (seed % u64::from(self.rounds_jitter + 1)) as u32,
        }
    }

    /// Specs for the whole fleet, in index order.
    pub fn specs(&self) -> Vec<MachineSpec> {
        (0..self.machines).map(|id| self.spec(id)).collect()
    }

    /// The per-machine system configuration (uniform across the fleet,
    /// so one frozen image per workload kind serves every member).
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            phys_words: self.phys_words,
            quantum: self.quantum,
            frame_budget: Some(self.frames),
            fastpath: self.fastpath,
            ..SystemConfig::default()
        }
    }
}

/// One machine's outcome.
#[derive(Clone, Debug)]
pub struct MachineResult {
    /// The spec that produced it.
    pub spec: MachineSpec,
    /// Instructions the machine completed.
    pub instructions: u64,
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// Host wall-clock for the member's boot and run (restarts
    /// included), in nanoseconds.
    pub wall_ns: u64,
    /// Whether the machine halted with every process exited cleanly
    /// inside the cycle budget.
    pub completed: bool,
    /// Whether the machine halted cleanly at all. Under chaos this is
    /// the health criterion: recovery may confine (kill) a damaged
    /// process, making `completed` false on a perfectly healthy halt.
    pub halted: bool,
    /// Copy-on-write pages this machine dirtied (0 on flat boots). A
    /// checkpoint restart restores the overlay as it was, so restarted
    /// members keep sharing the image.
    pub dirty_pages: u32,
    /// The machine's full observability snapshot.
    pub snapshot: MetricsSnapshot,
    /// The supervisor's health ledger (restarts, failures, quarantine).
    pub health: MachineHealth,
}

/// A worker-thread failure that cost the fleet a machine result.
#[derive(Clone, Debug)]
pub struct MemberError {
    /// The machine whose result is missing.
    pub id: usize,
    /// What happened (panic message, or "never ran").
    pub detail: String,
}

/// A whole fleet's outcome.
#[derive(Debug)]
pub struct FleetResult {
    /// Per-machine results in index order (machines listed in
    /// [`FleetResult::member_errors`] are absent).
    pub machines: Vec<MachineResult>,
    /// Every healthy (non-quarantined) machine snapshot folded in
    /// index order. Quarantined machines are reported individually and
    /// hashed separately, never merged.
    pub merged: MetricsSnapshot,
    /// Host-side failures, in index order: worker panics outside the
    /// supervised attempt loop, or machines no worker ever ran. Empty
    /// on a sound run — machine failures under chaos are *not* errors;
    /// they surface as [`MachineHealth`] entries.
    pub member_errors: Vec<MemberError>,
    /// Host wall-clock for the whole fleet (image builds included).
    pub wall_seconds: f64,
    /// Worker threads actually used.
    pub threads: usize,
    /// Words in each shared boot image (one per workload kind used).
    pub image_words: usize,
}

/// Installs `spec`'s workload on a freshly booted system: the
/// prototype install behind [`build_image`], and the flat reference
/// run of [`run_standalone`].
fn install_workload(sys: &mut System, cfg: &FleetConfig, spec: MachineSpec) {
    match spec.kind {
        WorkloadKind::PageStorm => {
            install_page_storm(
                sys,
                &StormSpec {
                    procs: cfg.procs,
                    pages: cfg.pages,
                    rounds: spec.rounds,
                },
            );
        }
        WorkloadKind::GateStorm => {
            install_gate_storm(
                sys,
                &GateStormSpec {
                    procs: cfg.procs,
                    rounds: spec.rounds,
                },
            );
        }
    }
}

/// Whether this fleet's machines need the supervisor's slicing and
/// checkpoint machinery at all; a chaos-free fleet takes the plain
/// single-run path (no slicing, no checkpoints).
fn supervised(cfg: &FleetConfig) -> bool {
    cfg.supervisor.chaos.is_some() || cfg.supervisor.kill_machine.is_some()
}

/// Runs a member to completion (or budget) and returns its result.
/// `boot` produces the member's installed, not yet running system.
/// Routes through the self-healing supervisor when the fleet has a
/// chaos campaign or kill injector configured.
fn run_machine(boot: &dyn Fn() -> System, cfg: &FleetConfig, spec: MachineSpec) -> MachineResult {
    if supervised(cfg) {
        return run_supervised(boot, cfg, spec);
    }
    let start = Instant::now();
    let mut sys = boot();
    sys.enable_metrics();
    sys.machine.set_timer(Some(cfg.quantum));
    let exit = sys.machine.run(cfg.budget);
    MachineResult {
        spec,
        instructions: sys.machine.stats().instructions,
        cycles: sys.machine.cycles(),
        wall_ns: start.elapsed().as_nanos() as u64,
        completed: exit == RunExit::Halted && all_exited(&sys),
        halted: exit == RunExit::Halted,
        dirty_pages: sys.machine.phys().dirty_pages(),
        snapshot: sys.metrics_snapshot(),
        health: MachineHealth::default(),
    }
}

/// Whether every installed storm process has exited cleanly.
pub(crate) fn all_exited(sys: &System) -> bool {
    let st = sys.state.borrow();
    sys.workload()
        .iter()
        .all(|p| st.processes[p.pid].aborted.as_deref() == Some("exit"))
}

/// Boots a prototype system, installs `kind`'s workload exactly as a
/// fleet member runs it (using the *base* rounds; a member's
/// seed-jittered rounds differ by one word per process), and freezes
/// it into a shared [`BootImage`] with the installed prototype as its
/// ready checkpoint.
pub fn build_image(cfg: &FleetConfig, kind: WorkloadKind) -> BootImage {
    let mut proto = System::boot_with(cfg.system_config());
    let proto_spec = MachineSpec {
        id: 0,
        seed: 0,
        kind,
        rounds: cfg.base_rounds,
    };
    install_workload(&mut proto, cfg, proto_spec);
    proto.freeze()
}

/// Boots fleet member `spec`, installed and ready to run: the image's
/// ready checkpoint restored over a copy-on-write view of the image,
/// with each process's round count set to the member's. Equivalent to
/// booting over the image and installing the workload with the
/// member's rounds, without repeating the install.
pub fn boot_member(image: &BootImage, spec: MachineSpec) -> System {
    let mut sys = System::boot_ready(image);
    sys.set_storm_rounds(spec.rounds);
    sys
}

/// Runs one fleet member over the shared image ([`boot_member`]) to
/// completion. Routes through the self-healing supervisor when the
/// fleet has a chaos campaign configured, whose first attempt and
/// restarts boot the same way.
pub fn run_member(image: &BootImage, cfg: &FleetConfig, spec: MachineSpec) -> MachineResult {
    run_machine(&|| boot_member(image, spec), cfg, spec)
}

/// Runs `spec` standalone on a private flat memory, installing its
/// workload from scratch — the reference a fleet member must be
/// bit-identical to (supervised when the config says so, exactly as
/// [`run_member`]).
pub fn run_standalone(cfg: &FleetConfig, spec: MachineSpec) -> MachineResult {
    let boot = || {
        let mut sys = System::boot_with(cfg.system_config());
        install_workload(&mut sys, cfg, spec);
        sys
    };
    run_machine(&boot, cfg, spec)
}

/// Resolves the worker-thread count: explicit, or host parallelism.
pub fn resolve_threads(cfg: &FleetConfig) -> usize {
    if cfg.threads > 0 {
        return cfg.threads;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs the whole fleet and folds the results.
///
/// Workers claim machine indices from a work-stealing queue, boot each
/// machine locally over the kind's shared image, and deposit results
/// by index; the merged snapshot folds in index order on the calling
/// thread, so thread count and steal interleaving cannot reach the
/// bytes. Quarantined machines keep their per-machine results but are
/// excluded from the healthy merged snapshot.
///
/// A worker panic outside the supervised attempt loop does not bring
/// the fleet down: the panic is caught, the machine's slot is recorded
/// in [`FleetResult::member_errors`], and the worker moves on to its
/// next index. (Panics *inside* an attempt are the supervisor's
/// problem and surface as [`FailureClass::HostPanic`] failures.)
pub fn run_fleet(cfg: &FleetConfig) -> FleetResult {
    let start = Instant::now();
    let threads = resolve_threads(cfg).max(1);
    let specs = cfg.specs();
    let needs_page = specs.iter().any(|s| s.kind == WorkloadKind::PageStorm);
    let needs_gate = specs.iter().any(|s| s.kind == WorkloadKind::GateStorm);
    let page_image = needs_page.then(|| build_image(cfg, WorkloadKind::PageStorm));
    let gate_image = needs_gate.then(|| build_image(cfg, WorkloadKind::GateStorm));
    let image_words = page_image
        .as_ref()
        .or(gate_image.as_ref())
        .map_or(0, BootImage::words);

    type Slot = Option<Result<MachineResult, String>>;
    let queue = queue::RunQueue::new(specs.len(), threads);
    let slots: Mutex<Vec<Slot>> = Mutex::new(vec![None; specs.len()]);
    std::thread::scope(|s| {
        for w in 0..threads {
            let queue = &queue;
            let slots = &slots;
            let specs = &specs;
            let page_image = page_image.as_ref();
            let gate_image = gate_image.as_ref();
            s.spawn(move || {
                while let Some(i) = queue.next(w) {
                    let spec = specs[i];
                    let slot = catch_unwind(AssertUnwindSafe(|| {
                        let image = match spec.kind {
                            WorkloadKind::PageStorm => page_image.expect("page image built"),
                            WorkloadKind::GateStorm => gate_image.expect("gate image built"),
                        };
                        run_member(image, cfg, spec)
                    }))
                    .map_err(supervisor::panic_message);
                    slots.lock().expect("result lock")[i] = Some(slot);
                }
            });
        }
    });

    let mut machines = Vec::with_capacity(specs.len());
    let mut member_errors = Vec::new();
    for (i, slot) in slots
        .into_inner()
        .expect("result lock")
        .into_iter()
        .enumerate()
    {
        match slot {
            Some(Ok(result)) => machines.push(result),
            Some(Err(detail)) => member_errors.push(MemberError { id: i, detail }),
            None => member_errors.push(MemberError {
                id: i,
                detail: "machine never ran (worker lost before claiming it)".to_string(),
            }),
        }
    }
    let mut merged = MetricsSnapshot::default();
    for m in &machines {
        if !m.health.is_quarantined() {
            merged.merge(&m.snapshot);
        }
    }
    FleetResult {
        machines,
        merged,
        member_errors,
        wall_seconds: start.elapsed().as_secs_f64(),
        threads,
        image_words,
    }
}
