//! World building: booting a complete system.
//!
//! [`System::boot`] constructs the machine, lays out the shared
//! supervisor segments (trap vectors, the two gate segments, supervisor
//! data for both layers), and registers the native supervisor bodies.
//! [`System::login`] then creates a process — its own descriptor
//! segment with the supervisor template installed plus eight per-ring
//! stack segments — exactly the paper's model of a layered supervisor
//! present in the virtual memory of every process.

use std::cell::RefCell;
use std::rc::Rc;

use ring_core::addr::{AbsAddr, SegNo};
use ring_core::callret::StackRule;
use ring_core::effective::EffectiveRingRules;
use ring_core::ring::Ring;
use ring_core::sdw::{Sdw, SdwBuilder};
use ring_core::word::Word;
use ring_cpu::machine::{Machine, MachineConfig};
use ring_segmem::layout::PhysAllocator;

use crate::acl::Acl;
use crate::conventions::{frame, hcs, ring1, segs};
use crate::fs::SegmentId;
use crate::process::ProcessState;
use crate::state::OsState;
use crate::workload::StormProc;

/// Configuration knobs for a booted system.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Physical memory size in words.
    pub phys_words: usize,
    /// SDW associative-memory capacity.
    pub sdw_cache: usize,
    /// Effective-ring rules (ablations).
    pub ea_rules: EffectiveRingRules,
    /// CALL stack-selection rule. Keep the default [`StackRule::DbrBase`]
    /// for booted systems: the plain Fig. 8 rule puts stacks at segment
    /// numbers 0–7, which this layout reserves for the supervisor (use
    /// bare `ring-cpu` worlds to experiment with that rule).
    pub stack_rule: StackRule,
    /// Scheduler quantum in cycles.
    pub quantum: u64,
    /// Whether the machine's fast-path execution engine (translation
    /// lookaside + predecoded instruction cache) is enabled.
    pub fastpath: bool,
    /// Physical-frame budget for demand paging. `Some(n)` caps paged
    /// segments at `n` resident frames, with CLOCK eviction to a
    /// simulated drum; `None` never reclaims frames (legacy).
    pub frame_budget: Option<u32>,
    /// Simulated cycles a drum transfer takes; a major page fault
    /// blocks the faulting process for this long.
    pub page_in_latency: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            phys_words: 2 * 1024 * 1024,
            sdw_cache: ring_segmem::sdw_cache::SdwCache::DEFAULT_CAPACITY,
            ea_rules: EffectiveRingRules::PAPER,
            stack_rule: StackRule::DbrBase,
            quantum: 5_000,
            fastpath: true,
            frame_budget: None,
            page_in_latency: 1_000,
        }
    }
}

/// A frozen boot image: a system's entire physical memory captured as
/// a shared read-only array, the configuration that built it, and the
/// system as it stood when frozen, as a ready-to-run checkpoint.
///
/// Build a prototype system once ([`System::boot_with`] plus workload
/// installation) and [`System::freeze`] it. Then start any number of
/// machines from the image: [`System::boot_ready`] gives the installed
/// prototype itself, and [`System::boot_from_image`] a freshly booted,
/// empty world to build on. Each clone's memory is a copy-on-write view
/// ([`ring_segmem::PhysMem::cow`]) over the shared image, so
/// per-machine footprint is only the pages a machine actually changes.
/// The image is `Send + Sync` and cheap to clone across threads.
#[derive(Clone)]
pub struct BootImage {
    cfg: SystemConfig,
    base: std::sync::Arc<Vec<Word>>,
    ready: SystemCheckpoint,
    workload: Vec<StormProc>,
}

impl BootImage {
    /// The configuration the image was frozen with (and that clones
    /// boot with).
    pub fn cfg(&self) -> SystemConfig {
        self.cfg
    }

    /// The image contents, by shared reference count. Words past the
    /// end read as zero.
    pub fn share(&self) -> std::sync::Arc<Vec<Word>> {
        std::sync::Arc::clone(&self.base)
    }

    /// Image size in words: the configured physical memory size.
    pub fn words(&self) -> usize {
        self.cfg.phys_words
    }
}

/// A restartable world snapshot: the machine's architectural state
/// ([`ring_cpu::MachineCheckpoint`]) plus the supervisor's host-side
/// state (kernel tables and the physical allocator) and the metrics
/// recorder.
///
/// This is the unit of the fleet supervisor's self-healing loop: a
/// machine that wedges, double-faults, or fails its post-recovery
/// invariant check is rewound to its last checkpoint
/// ([`System::restore_checkpoint`]) and re-run — deterministically,
/// since everything influencing execution is inside the snapshot.
#[derive(Clone)]
pub struct SystemCheckpoint {
    machine: ring_cpu::MachineCheckpoint,
    os: OsState,
    alloc: PhysAllocator,
    metrics: ring_metrics::Metrics,
    /// Simulated cycles at capture (restart bookkeeping: cycles lost
    /// to a rewind are `failure_cycles - checkpoint.cycles`).
    pub cycles: u64,
}

/// A booted system: machine plus supervisor state.
pub struct System {
    /// The processor and memory.
    pub machine: Machine,
    /// Shared supervisor state.
    pub state: Rc<RefCell<OsState>>,
    /// Shared physical allocator.
    pub alloc: Rc<RefCell<PhysAllocator>>,
    template: Vec<(u32, Sdw)>,
    cfg: SystemConfig,
    /// Storm processes installed on this system, in install order.
    pub(crate) workload: Vec<StormProc>,
}

impl System {
    /// Boots with default configuration.
    pub fn boot() -> System {
        System::boot_with(SystemConfig::default())
    }

    /// Boots with explicit configuration.
    pub fn boot_with(cfg: SystemConfig) -> System {
        System::boot_on(cfg, ring_segmem::PhysMem::new(cfg.phys_words))
    }

    /// Boots over a frozen image: physical memory becomes a
    /// copy-on-write view sharing the image's storage. The supervisor
    /// is rebuilt host-side exactly as in a fresh boot, and no workload
    /// is installed. Because world-building pokes that store a word's
    /// existing value leave the overlay untouched, a clone that replays
    /// the prototype's boot and workload install dirties no pages at
    /// all until it diverges.
    pub fn boot_from_image(image: &BootImage) -> System {
        let cfg = image.cfg();
        System::boot_on(
            cfg,
            ring_segmem::PhysMem::cow(image.share(), cfg.phys_words),
        )
    }

    /// Boots the image's prototype as it was frozen: a boot over the
    /// image with the ready checkpoint restored onto it, so the
    /// workload is installed without being replayed. The result is
    /// indistinguishable from [`System::boot_from_image`] followed by
    /// the prototype's install.
    ///
    /// # Panics
    ///
    /// Never for an image made by [`System::freeze`]: the checkpoint
    /// was taken on the image's own configuration.
    pub fn boot_ready(image: &BootImage) -> System {
        let mut sys = System::boot_from_image(image);
        sys.restore_checkpoint(&image.ready)
            .expect("the ready checkpoint matches its own image");
        sys.workload.clone_from(&image.workload);
        sys
    }

    /// Turns this system into a shared read-only [`BootImage`],
    /// consuming it: its memory becomes the image without a copy, and
    /// the system itself becomes the image's ready checkpoint. Freeze
    /// after world building and workload installation, before any
    /// execution, so clones start from the exact installed state.
    pub fn freeze(mut self) -> BootImage {
        let base = self.machine.phys_mut().freeze_base();
        BootImage {
            cfg: self.cfg,
            base,
            ready: self.checkpoint(),
            workload: self.workload,
        }
    }

    /// The storm processes installed on this system
    /// ([`crate::workload`]), in install order.
    pub fn workload(&self) -> &[StormProc] {
        &self.workload
    }

    /// The configuration this system booted with.
    pub fn cfg(&self) -> SystemConfig {
        self.cfg
    }

    /// Boots on an explicit physical memory (flat or copy-on-write).
    fn boot_on(cfg: SystemConfig, phys: ring_segmem::PhysMem) -> System {
        let mconfig = MachineConfig {
            stack_rule: cfg.stack_rule,
            ea_rules: cfg.ea_rules,
            sdw_cache: cfg.sdw_cache,
            trap_segno: SegNo::new(segs::TRAP).expect("segno"),
            trap_vector_base: 0,
            trap_save_offset: 64,
            fastpath: cfg.fastpath,
            ..MachineConfig::default()
        };
        let mut machine = Machine::with_phys(phys, mconfig);
        let mut alloc = PhysAllocator::new(0o100, cfg.phys_words as u32);

        let mut template: Vec<(u32, Sdw)> = Vec::new();
        let mut place = |alloc: &mut PhysAllocator, segno: u32, b: SdwBuilder| {
            let probe = b.build();
            let base = alloc
                .alloc(probe.length_words())
                .expect("supervisor layout");
            let sdw = b.addr(base).build();
            template.push((segno, sdw));
        };

        // The trap segment: vectors + save area; ring-0 only.
        place(
            &mut alloc,
            segs::TRAP,
            SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R0)
                .write(true)
                .bound_words(256),
        );
        // The hardcore gate segment: executes in ring 0, gates open
        // through ring 5 ("procedures executing in rings 6 and 7 are
        // not given access to supervisor gates").
        place(
            &mut alloc,
            segs::HCS,
            SdwBuilder::procedure(Ring::R0, Ring::R0, Ring::R5)
                .gates(hcs::COUNT)
                .bound_words(16),
        );
        // The ring-1 gate segment.
        place(
            &mut alloc,
            segs::RING1,
            SdwBuilder::procedure(Ring::R1, Ring::R1, Ring::R5)
                .gates(ring1::COUNT)
                .bound_words(16),
        );
        // Supervisor data, per layer.
        place(
            &mut alloc,
            segs::SUP_DATA,
            SdwBuilder::data(Ring::R0, Ring::R0).bound_words(1024),
        );
        place(
            &mut alloc,
            segs::RING1_DATA,
            SdwBuilder::data(Ring::R1, Ring::R1).bound_words(1024),
        );

        let mut os = OsState::new();
        os.quantum = cfg.quantum;
        os.frames = cfg.frame_budget.map(ring_segmem::FramePool::new);
        os.page_in_latency = cfg.page_in_latency;
        let state = Rc::new(RefCell::new(os));
        let alloc = Rc::new(RefCell::new(alloc));

        crate::traps::install(&mut machine, state.clone(), alloc.clone());
        crate::gates::install(&mut machine, state.clone());

        System {
            machine,
            state,
            alloc,
            template,
            cfg,
            workload: Vec::new(),
        }
    }

    /// Registers a user.
    pub fn add_user(&self, name: &str) {
        self.state.borrow_mut().add_user(name);
    }

    /// Creates a stored segment in on-line storage (host-level; the
    /// simulated way in is `hcs$set_acl` plus supervisor file-creation
    /// gates, which this reproduction keeps host-side).
    ///
    /// # Panics
    ///
    /// Panics on storage errors — world-building is expected to be
    /// well-formed.
    pub fn create_segment(&self, path: &str, acl: Acl, data: Vec<Word>) -> SegmentId {
        self.state
            .borrow_mut()
            .fs
            .create_segment(path, acl, data)
            .expect("create stored segment")
    }

    /// Logs `user` in: creates a process with a fresh virtual memory
    /// (descriptor segment + supervisor template + per-ring stacks) and
    /// returns its process id.
    ///
    /// # Panics
    ///
    /// Panics when physical memory for the descriptor or stacks cannot
    /// be allocated.
    pub fn login(&mut self, user: &str) -> usize {
        self.add_user(user);
        let mut alloc = self.alloc.borrow_mut();
        let desc_base = alloc
            .alloc(2 * segs::DESCRIPTOR_SLOTS)
            .expect("descriptor segment");
        // Supervisor template.
        for (segno, sdw) in &self.template {
            Self::poke_sdw(&mut self.machine, desc_base, *segno, sdw);
        }
        // Per-ring stacks: read and write brackets end at ring r.
        for r in Ring::all() {
            let base = alloc.alloc(1024).expect("stack segment");
            let sdw = SdwBuilder::data(r, r).addr(base).bound_words(1024).build();
            Self::poke_sdw(
                &mut self.machine,
                desc_base,
                segs::STACK_BASE + u32::from(r.number()),
                &sdw,
            );
            self.machine
                .phys_mut()
                .poke(base, Word::new(u64::from(frame::FIRST_FRAME)))
                .expect("stack header");
        }
        drop(alloc);
        // The new process's trap-segment SDW pair must survive chaos
        // injection: a parity error met while entering a trap is an
        // unrecoverable double fault (the hardware analogue kept its
        // trap storage on corrected memory).
        let trap_pair = desc_base.wrapping_add(2 * segs::TRAP).value();
        self.machine.chaos_protect(trap_pair, trap_pair + 2);
        let mut st = self.state.borrow_mut();
        st.processes.push(ProcessState::new(user, desc_base));
        st.processes.len() - 1
    }

    /// Installs `sdw` at `segno` in process `pid`'s descriptor segment.
    ///
    /// # Panics
    ///
    /// Panics on bad segment numbers or physical faults.
    pub fn install_sdw(&mut self, pid: usize, segno: u32, sdw: &Sdw) {
        let desc_base = self.state.borrow().processes[pid].dbr.addr;
        Self::poke_sdw(&mut self.machine, desc_base, segno, sdw);
        self.machine.translator_mut().flush_cache();
    }

    fn poke_sdw(machine: &mut Machine, desc_base: AbsAddr, segno: u32, sdw: &Sdw) {
        let base = desc_base.wrapping_add(2 * segno);
        let (w0, w1) = sdw.pack();
        machine.phys_mut().poke(base, w0).expect("descriptor poke");
        machine
            .phys_mut()
            .poke(base.wrapping_add(1), w1)
            .expect("descriptor poke");
    }

    /// Reads the SDW installed at `segno` for process `pid`.
    ///
    /// # Panics
    ///
    /// Panics on physical faults.
    pub fn read_sdw(&self, pid: usize, segno: u32) -> Sdw {
        let desc_base = self.state.borrow().processes[pid].dbr.addr;
        let base = desc_base.wrapping_add(2 * segno);
        let w0 = self.machine.phys().peek(base).expect("descriptor peek");
        let w1 = self
            .machine
            .phys()
            .peek(base.wrapping_add(1))
            .expect("descriptor peek");
        Sdw::unpack(w0, w1)
    }

    /// Makes `pid` the current process and loads its DBR.
    ///
    /// # Panics
    ///
    /// Panics on an invalid pid.
    pub fn activate(&mut self, pid: usize) {
        let dbr = self.state.borrow().processes[pid].dbr;
        self.state.borrow_mut().current = pid;
        self.machine.load_dbr(dbr);
    }

    /// Logs process `pid` out: it stops being schedulable. Its stored
    /// segments and any shared images remain (on-line storage outlives
    /// processes).
    ///
    /// # Panics
    ///
    /// Panics on an invalid pid.
    pub fn logout(&mut self, pid: usize) {
        let mut st = self.state.borrow_mut();
        st.processes[pid].aborted = Some("logout".to_string());
        st.processes[pid].saved = None;
        st.sched.remove(pid);
    }

    /// The supervisor statistics snapshot.
    pub fn stats(&self) -> crate::state::SupervisorStats {
        self.state.borrow().stats
    }

    /// Turns on the machine's metrics recorder (ring crossings, faults,
    /// cycle histograms, per-segment heatmap).
    pub fn enable_metrics(&mut self) {
        self.machine.enable_metrics();
    }

    /// Arms deterministic chaos injection with `plan`. Must happen
    /// during world building (before execution) so record and replay
    /// see the same injection schedule.
    pub fn enable_chaos(&mut self, plan: ring_cpu::FaultPlan) {
        self.machine
            .set_chaos(ring_cpu::ChaosEngine::with_plan(plan));
    }

    /// Runs the chaos protection-invariant checker against the current
    /// world (descriptor brackets, frame-pool/PTW agreement, SDW-cache
    /// coherence). Violations come back typed
    /// ([`crate::invariants::InvariantViolation`]) so callers can
    /// classify them instead of string-matching.
    pub fn check_invariants(&self) -> Result<(), crate::invariants::InvariantViolation> {
        crate::invariants::check(&self.machine, &self.state.borrow())
    }

    /// Captures the complete simulated world — machine state
    /// (registers, memory, I/O, chaos state), the supervisor's host-side
    /// state and physical allocator, and the metrics recorder — as a
    /// restartable checkpoint.
    ///
    /// Capture is uncounted and read-only: taking a checkpoint never
    /// perturbs the run (the fleet supervisor checkpoints on a cycle
    /// cadence mid-execution). Nothing large is copied: memory pages,
    /// drum pages and stored-segment bodies are shared by reference
    /// count, and whichever side writes a shared memory page next
    /// copies that page then.
    pub fn checkpoint(&self) -> SystemCheckpoint {
        SystemCheckpoint {
            machine: self.machine.checkpoint(),
            os: self.state.borrow().clone(),
            alloc: self.alloc.borrow().clone(),
            metrics: self.machine.metrics().clone(),
            cycles: self.machine.cycles(),
        }
    }

    /// Rewinds the world to `ck`: machine state, supervisor state,
    /// physical allocator and metrics recorder all restored exactly as
    /// captured. The system must have been built with the same
    /// configuration that produced the checkpoint; a mismatch (such as
    /// a different `phys_words`) is an error and leaves the system
    /// untouched.
    ///
    /// Memory comes back as the checkpoint's clone. A checkpoint of a
    /// copy-on-write boot therefore restores as the same shared base
    /// plus its dirty pages: the restored machine reports exactly the
    /// dirty pages it had at capture and goes on sharing the boot image.
    pub fn restore_checkpoint(&mut self, ck: &SystemCheckpoint) -> Result<(), String> {
        self.machine.restore_checkpoint(&ck.machine)?;
        *self.state.borrow_mut() = ck.os.clone();
        *self.alloc.borrow_mut() = ck.alloc.clone();
        *self.machine.metrics_mut() = ck.metrics.clone();
        Ok(())
    }

    /// The supervisor's fault-recovery counters.
    pub fn chaos_stats(&self) -> crate::state::ChaosRecoveryStats {
        self.state.borrow().chaos
    }

    /// Turns on the span flight recorder: every gate CALL and trap the
    /// supervisor mediates opens a span, closed by the matching
    /// RETURN/RETT, with per-gate cycle attribution.
    pub fn enable_spans(&mut self) {
        self.machine.enable_spans();
    }

    /// Drains the recorded span events (the recorder stays enabled).
    pub fn take_span_events(&mut self) -> Vec<ring_trace::SpanEvent> {
        self.machine.take_span_events()
    }

    /// Attaches the cycle-driven sampling profiler and time-series
    /// pipeline (`ring-prof`). Per-process attribution comes free: the
    /// scheduler's dispatch events ride in the span stream, so sampled
    /// stacks are rooted at the running process. Either period can be
    /// zero to disable that pipeline; enabling sampling also enables
    /// the span recorder.
    pub fn enable_profiler(&mut self, sample_every: u64, timeseries_every: u64) {
        self.machine.enable_profiler(sample_every, timeseries_every);
    }

    /// The sampling profiler (read-only).
    pub fn profiler(&self) -> &ring_prof::Profiler {
        self.machine.profiler()
    }

    /// The interval time-series pipeline (read-only).
    pub fn timeseries(&self) -> &ring_prof::TimeSeries {
        self.machine.timeseries()
    }

    /// The cross-ring call tree of the run so far, aggregated per gate
    /// (sorted by total cycles).
    pub fn span_gate_table(&self) -> Vec<ring_trace::GateStat> {
        let tree = ring_trace::build_tree(self.machine.spans().events(), self.machine.cycles());
        ring_trace::gate_table(&tree)
    }

    /// Builds the unified observability snapshot: machine metrics and
    /// SDW-cache statistics, plus the supervisor's `os.*` counters and
    /// per-process crossing counts in the `extra` section.
    pub fn metrics_snapshot(&self) -> ring_metrics::MetricsSnapshot {
        let mut snap = self.machine.metrics_snapshot();
        let st = self.state.borrow();
        for (k, v) in st.stats.export_pairs() {
            snap.push_extra(k, v);
        }
        if self.machine.chaos().enabled() {
            for (k, v) in st.chaos.export_pairs() {
                snap.push_extra(k, v);
            }
        }
        for (pid, p) in st.processes.iter().enumerate() {
            snap.push_extra(format!("os.proc.{pid}.gate_calls"), p.gate_calls);
            snap.push_extra(format!("os.proc.{pid}.upward_calls"), p.upward_calls);
            snap.push_extra(format!("os.proc.{pid}.preemptions"), p.preemptions);
            snap.push_extra(format!("os.proc.{pid}.page_faults"), p.page_faults);
        }
        let sc = st.sched.stats;
        snap.sched = ring_metrics::SchedStats {
            context_switches: sc.context_switches,
            preemptions: sc.preemptions,
            page_faults_minor: sc.page_faults_minor,
            page_faults_major: sc.page_faults_major,
            evictions: sc.evictions,
            io_blocks: sc.io_blocks,
            page_blocks: sc.page_blocks,
            idle_cycles: sc.idle_cycles,
        };
        snap
    }

    /// The unified snapshot serialized as JSON.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// What the typewriter on the standard channel has printed.
    pub fn tty_printed(&self) -> String {
        self.machine
            .io()
            .device(crate::services::TTY_CHANNEL as usize)
            .printed()
    }
}
