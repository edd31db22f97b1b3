//! The ring-0 trap dispatcher.
//!
//! Installed as the native body of the trap segment; entered by the
//! hardware at `vector` after it has forced ring 0 and saved the
//! processor state. Handles:
//!
//! * **segment faults** — demand loading of initiated segments (memory
//!   multiplexing, a ring-0 function in the paper's layering);
//! * **page faults** — demand paging of large segments, with CLOCK
//!   eviction to a simulated drum when a physical-frame budget is
//!   configured; a *major* fault (page refilled from the drum) blocks
//!   the faulting process for the transfer latency and dispatches
//!   another;
//! * **timer runout** — processor multiplexing: round-robin over the
//!   ready queue, blocked processes skipped;
//! * **upward calls / downward returns** — the two ring crossings the
//!   hardware hands to software, implemented with a per-process
//!   push-down stack of dynamically created return gates;
//! * **I/O completions** — wake processes blocked on the channel;
//! * **derail `EXIT_CODE`** — orderly process exit;
//! * **derail `IO_WAIT_CODE`** — block until the channel named in the
//!   A register completes, instead of spinning on a status word;
//! * **parity errors** — classify and repair the damaged word through
//!   [`crate::recover`], then re-check the protection invariants
//!   ([`crate::invariants`]); unrepairable damage kills one process,
//!   never the system;
//! * **I/O errors** — a channel watchdog fired in place of a lost
//!   completion interrupt: wake the stranded waiter;
//! * everything else — process abort.
//!
//! Demand paging additionally consumes armed drum transfer errors from
//! the chaos engine: a failed read is retried with exponential backoff
//! (bounded — the process dies after [`MAX_DRUM_RETRIES`]), a failed
//! write is retried immediately.
//!
//! Every dispatch — timer preemption, block, wake, abort — goes
//! through `dispatch_to`, which reloads the DBR (flushing the SDW
//! cache and TLB with it, exactly as the paper's hardware requires on
//! an address-space switch) and notes the decision on the scheduler
//! trace and span stream.

use std::cell::RefCell;
use std::rc::Rc;

use ring_core::access::{vector, Fault};
use ring_core::addr::{AbsAddr, SegAddr, SegNo};
use ring_core::registers::Ipr;
use ring_cpu::io::NUM_CHANNELS;
use ring_cpu::machine::Machine;
use ring_cpu::native::NativeAction;
use ring_sched::BlockReason;
use ring_segmem::frames::{sweep_out, FrameOwner};
use ring_segmem::layout::PhysAllocator;
use ring_segmem::paging::{pages_for, Ptw, PAGE_WORDS};
use ring_segmem::PageKey;

use crate::conventions::{segs, PR_RP};
use crate::services::SMALL_SEGMENT_WORDS;
use crate::state::OsState;

/// The derail code user programs raise to exit cleanly.
pub const EXIT_CODE: u32 = 0o777;

/// The derail code that blocks the process until the I/O channel named
/// in the A register completes (the supervisor's "wait" primitive).
pub const IO_WAIT_CODE: u32 = 0o776;

/// Consecutive drum-read failures a page-in survives before the
/// supervisor gives up and kills the faulting process.
pub const MAX_DRUM_RETRIES: u32 = 3;

/// Installs the trap dispatcher on the machine.
pub fn install(
    machine: &mut Machine,
    state: Rc<RefCell<OsState>>,
    alloc: Rc<RefCell<PhysAllocator>>,
) {
    machine.register_native(SegNo::new(segs::TRAP).expect("segno"), move |m, entry| {
        let mut s = state.borrow_mut();
        let mut a = alloc.borrow_mut();
        dispatch(m, &mut s, &mut a, entry.value())
    });
}

fn dispatch(
    m: &mut Machine,
    s: &mut OsState,
    a: &mut PhysAllocator,
    v: u32,
) -> Result<NativeAction, Fault> {
    match v {
        vector::SEGMENT_FAULT => {
            let (_, _, addr, _) = m.fault_info()?;
            s.stats.segment_faults += 1;
            match load_segment(m, s, a, addr.segno.value()) {
                Ok(()) => Ok(NativeAction::Resume),
                Err(reason) => abort_current(m, s, &reason),
            }
        }
        vector::PAGE_FAULT => {
            let (_, _, addr, _) = m.fault_info()?;
            s.stats.page_faults += 1;
            match load_page(m, s, a, addr) {
                Ok(None) => Ok(NativeAction::Resume),
                Ok(Some(wake_at)) => {
                    // Major fault: the process sleeps out the drum
                    // transfer. The saved IPR points at the faulting
                    // instruction, so it restarts transparently on
                    // wake-up.
                    let saved = m.saved_state()?;
                    let cur = s.current;
                    s.processes[cur].saved = Some(saved);
                    s.sched.block(cur, BlockReason::PageWait { wake_at });
                    next_or_idle(m, s)
                }
                Err(reason) => abort_current(m, s, &reason),
            }
        }
        vector::TIMER_RUNOUT => {
            s.stats.schedules += 1;
            schedule(m, s)
        }
        vector::IO_COMPLETION => {
            s.stats.io_completions += 1;
            if let Some(Fault::IoCompletion { channel }) = m.last_fault() {
                s.sched.wake_io(channel);
            }
            Ok(NativeAction::Resume)
        }
        vector::PARITY_ERROR => {
            let (_, _, _, detail) = m.fault_info()?;
            let abs = detail.raw() as u32;
            let outcome = crate::recover::recover_parity(m, s, abs);
            if crate::invariants::check(m, s).is_err() {
                s.chaos.invariant_failures += 1;
            }
            match outcome {
                crate::recover::ParityOutcome::Recovered => Ok(NativeAction::Resume),
                crate::recover::ParityOutcome::KillCurrent(reason) => {
                    s.chaos.killed += 1;
                    abort_current(m, s, &reason)
                }
            }
        }
        vector::IO_ERROR => {
            // The channel watchdog fired in place of a completion whose
            // interrupt was lost. The transfer itself finished (the
            // device did the work; only the interrupt vanished), so
            // waking the stranded waiter fully recovers.
            let (_, _, _, detail) = m.fault_info()?;
            let channel = (detail.raw() >> 18) as u8;
            s.chaos.io_timeouts += 1;
            s.chaos.recovered += 1;
            s.sched.wake_io(channel);
            Ok(NativeAction::Resume)
        }
        vector::UPWARD_CALL => {
            s.stats.upward_calls += 1;
            if !s.processes.is_empty() {
                s.current_process_mut().upward_calls += 1;
            }
            upward_call(m, s)
        }
        vector::DOWNWARD_RETURN => {
            s.stats.downward_returns += 1;
            downward_return(m, s)
        }
        vector::DERAIL => {
            let (_, _, _, detail) = m.fault_info()?;
            let code = detail.raw() as u32;
            if code == EXIT_CODE {
                abort_current(m, s, "exit")
            } else if code == IO_WAIT_CODE {
                io_wait(m, s)
            } else {
                abort_current(m, s, &format!("derail {}", detail.raw()))
            }
        }
        _ => {
            let fault = m.last_fault();
            abort_current(
                m,
                s,
                &fault
                    .map(|f| f.to_string())
                    .unwrap_or_else(|| format!("vector {v}")),
            )
        }
    }
}

/// Brings an initiated segment into memory (first reference).
fn load_segment(
    m: &mut Machine,
    s: &mut OsState,
    a: &mut PhysAllocator,
    segno: u32,
) -> Result<(), String> {
    let entry = s
        .current_process()
        .lookup(segno)
        .cloned()
        .ok_or_else(|| format!("segment fault on unknown segment {segno}"))?;
    let sn = SegNo::new(segno).expect("segno");
    let mut sdw = m
        .segment_descriptor(sn)
        .map_err(|e| format!("descriptor read: {e}"))?;
    // Shared segments: if another process (or this one, earlier)
    // already brought the segment in, map the same storage.
    if let Some(img) = s.fs.segment(entry.id).image {
        sdw.addr = img.addr;
        sdw.unpaged = img.unpaged;
        sdw.present = true;
        m.store_descriptor(sn, &sdw)
            .map_err(|e| format!("descriptor write: {e}"))?;
        s.current_process_mut()
            .kst
            .get_mut(&segno)
            .expect("entry just looked up")
            .loaded = true;
        return Ok(());
    }
    let data = &s.fs.segment(entry.id).data;
    if data.len() <= SMALL_SEGMENT_WORDS {
        let base = a
            .alloc(sdw.length_words())
            .map_err(|e| format!("out of memory: {e}"))?;
        m.phys_mut()
            .poke_block(base, data)
            .map_err(|e| e.to_string())?;
        sdw.addr = base;
        sdw.unpaged = true;
    } else {
        let npages = pages_for(data.len() as u32);
        let pt = a.alloc(npages).map_err(|e| format!("out of memory: {e}"))?;
        m.phys_mut()
            .poke_block(pt, &vec![Ptw::MISSING.pack(); npages as usize])
            .map_err(|e| e.to_string())?;
        sdw.addr = pt;
        sdw.unpaged = false;
    }
    sdw.present = true;
    m.store_descriptor(sn, &sdw)
        .map_err(|e| format!("descriptor write: {e}"))?;
    s.fs.segment_mut(entry.id).image = Some(crate::fs::LoadedImage {
        addr: sdw.addr,
        unpaged: sdw.unpaged,
    });
    s.current_process_mut()
        .kst
        .get_mut(&segno)
        .expect("entry just looked up")
        .loaded = true;
    Ok(())
}

/// Brings one page of a paged segment into memory.
///
/// Under a frame budget the frame comes from the CLOCK pool, possibly
/// evicting a victim page to the backing store first (with a full
/// translation shoot-down, since the victim may be mapped in any
/// address space). Returns `Ok(Some(wake_at))` when the fill came from
/// the drum — a *major* fault whose transfer latency the caller must
/// sleep out — and `Ok(None)` for a *minor* fault filled from the file
/// image.
fn load_page(
    m: &mut Machine,
    s: &mut OsState,
    a: &mut PhysAllocator,
    addr: SegAddr,
) -> Result<Option<u64>, String> {
    let segno = addr.segno.value();
    let entry = s
        .current_process()
        .lookup(segno)
        .cloned()
        .ok_or_else(|| format!("page fault on unknown segment {segno}"))?;
    let sdw = m
        .segment_descriptor(addr.segno)
        .map_err(|e| format!("descriptor read: {e}"))?;
    if sdw.unpaged {
        return Err("page fault on unpaged segment".into());
    }
    let page = addr.wordno.value() / PAGE_WORDS;
    let ptw_addr = sdw.addr.wrapping_add(page);
    let cur = s.current;
    let key = PageKey {
        seg: entry.id.0,
        page,
    };
    // An armed drum read error hits before any frame changes hands:
    // the fill would come from the drum and the transfer fails. Retry
    // with exponential backoff by leaving the PTW missing — the
    // instruction re-faults after the sleep — and give up (killing the
    // process, not the system) after MAX_DRUM_RETRIES.
    if s.backing.contains(key) && m.chaos_mut().take_drum_read_error() {
        let attempts = s.drum_attempts.entry((cur, segno, page)).or_insert(0);
        *attempts += 1;
        let n = *attempts;
        s.chaos.drum_retries += 1;
        if n > MAX_DRUM_RETRIES {
            s.drum_attempts.remove(&(cur, segno, page));
            return Err(format!(
                "drum read for segment {segno} page {page} failed after {MAX_DRUM_RETRIES} retries"
            ));
        }
        return Ok(Some(m.cycles() + (s.page_in_latency << n)));
    }
    let mut victim = None;
    let frame = match s.frames.as_mut() {
        Some(pool) => {
            let got = pool
                .acquire(
                    a,
                    m.phys_mut(),
                    FrameOwner {
                        pid: cur,
                        segno,
                        page,
                        ptw_addr,
                    },
                )
                .map_err(|e| format!("frame acquisition: {e}"))?;
            victim = got.victim;
            got.frame
        }
        None => a.alloc_frame().map_err(|e| format!("out of frames: {e}"))?,
    };
    if let Some(v) = victim {
        // Sweep the victim out to the drum under its stored-segment
        // identity (several processes may map the same segment through
        // one page table), unmap its PTW, and shoot down every cached
        // translation: the victim may be mapped in any address space,
        // and the CLOCK sweep also cleared used bits that the TLB
        // would otherwise keep stale.
        let vseg = s.processes[v.owner.pid]
            .lookup(v.owner.segno)
            .map(|e| e.id.0)
            .ok_or_else(|| {
                format!(
                    "victim page has no KST entry: pid {} segno {}",
                    v.owner.pid, v.owner.segno
                )
            })?;
        let words =
            sweep_out(m.phys_mut(), &v, frame, PAGE_WORDS as usize).map_err(|e| e.to_string())?;
        // An armed drum write error fails the first transfer of the
        // victim to the drum; the supervisor retries (modelled as an
        // immediate success — the words are still in hand).
        if m.chaos_mut().take_drum_write_error() {
            s.chaos.drum_retries += 1;
            s.chaos.recovered += 1;
        }
        s.backing.store(
            PageKey {
                seg: vseg,
                page: v.owner.page,
            },
            words,
        );
        s.sched.stats.evictions += 1;
        m.translator_mut().flush_cache();
    }
    let base = AbsAddr::from_bits(u64::from(frame * PAGE_WORDS));
    let fetched = s.backing.fetch(key);
    let major = fetched.is_some();
    // Refill from the drum (consuming the drum copy, which goes stale
    // the moment the page is writable in core) or from the file image.
    // The words are copied eagerly for simulation simplicity; after a
    // drum refill, the block the caller applies models the transfer
    // time.
    let words = match &fetched {
        Some(words) => &words[..],
        None => {
            let data = &s.fs.segment(entry.id).data;
            let lo = (page * PAGE_WORDS) as usize;
            let hi = data.len().min(lo + PAGE_WORDS as usize);
            data.get(lo..hi).unwrap_or(&[])
        }
    };
    m.phys_mut()
        .poke_block(base, words)
        .map_err(|e| e.to_string())?;
    let ptw = Ptw::present(frame).ok_or("frame number overflow")?;
    m.phys_mut()
        .poke(sdw.addr.wrapping_add(page), ptw.pack())
        .map_err(|e| e.to_string())?;
    s.processes[cur].page_faults += 1;
    // The fill succeeded: any drum-retry history for this page has
    // resolved into a recovery.
    if s.drum_attempts.remove(&(cur, segno, page)).is_some() {
        s.chaos.recovered += 1;
    }
    if major {
        s.sched.stats.page_faults_major += 1;
        Ok(Some(m.cycles() + s.page_in_latency))
    } else {
        s.sched.stats.page_faults_minor += 1;
        Ok(None)
    }
}

/// Round-robin processor multiplexing on timer runout: the preempted
/// process goes to the back of the ready queue and the head runs next.
fn schedule(m: &mut Machine, s: &mut OsState) -> Result<NativeAction, Fault> {
    let cur = s.current;
    let running = m.saved_state()?;
    s.processes[cur].saved = Some(running);
    s.sched.wake_due(m.cycles());
    s.sched.make_ready(cur);
    let next = pop_ready(s).expect("current process is on the ready queue");
    if next != cur {
        s.sched.stats.preemptions += 1;
        s.processes[cur].preemptions += 1;
    }
    dispatch_to(m, s, next)?;
    m.set_timer(Some(s.quantum));
    Ok(NativeAction::Resume)
}

/// Blocks the current process until the I/O channel named in its A
/// register completes (derail `IO_WAIT_CODE`).
fn io_wait(m: &mut Machine, s: &mut OsState) -> Result<NativeAction, Fault> {
    let mut saved = m.saved_state()?;
    let channel = (saved.a.raw() as usize) % NUM_CHANNELS;
    // The saved IPR points at the DRL itself; resume past it once the
    // wait is over.
    saved.ipr = Ipr::new(
        saved.ipr.ring,
        SegAddr::new(saved.ipr.addr.segno, saved.ipr.addr.wordno.wrapping_add(1)),
    );
    if !m.io().busy(channel) {
        // The completion already arrived; nothing to wait for.
        m.set_saved_state(&saved)?;
        return Ok(NativeAction::Resume);
    }
    let cur = s.current;
    s.processes[cur].saved = Some(saved);
    s.sched.block(
        cur,
        BlockReason::IoWait {
            channel: channel as u8,
        },
    );
    next_or_idle(m, s)
}

/// Pops ready processes until a live one surfaces (aborted processes
/// may linger on the queue if they died while waiting).
fn pop_ready(s: &mut OsState) -> Option<usize> {
    while let Some(pid) = s.sched.pop_next() {
        if s.processes[pid].aborted.is_none() {
            return Some(pid);
        }
    }
    None
}

/// Gives the processor to `next`: reload its DBR (flushing the SDW
/// cache and TLB — the address space changed), restore its saved state
/// into the trap save area, and note the dispatch for the trace.
fn dispatch_to(m: &mut Machine, s: &mut OsState, next: usize) -> Result<(), Fault> {
    if next != s.current {
        s.sched.stats.context_switches += 1;
    }
    s.current = next;
    s.schedule_trace.push(next);
    let dbr = s.processes[next].dbr;
    let resume = s.processes[next]
        .saved
        .take()
        .expect("dispatched process has a saved state");
    m.load_dbr(dbr);
    m.set_saved_state(&resume)?;
    m.note_sched(next as u32);
    Ok(())
}

/// Dispatches the next ready process, or idles the machine forward to
/// the next wake-up event if every live process is blocked.
fn next_or_idle(m: &mut Machine, s: &mut OsState) -> Result<NativeAction, Fault> {
    if let Some(next) = pop_ready(s) {
        dispatch_to(m, s, next)?;
        if m.timer().is_some() {
            m.set_timer(Some(s.quantum));
        }
        return Ok(NativeAction::Resume);
    }
    idle_advance(m, s)
}

/// Every live process is blocked: charge simulated time straight to
/// the earliest wake-up event (page-in completion or awaited channel
/// completion), wake whoever it unblocks, and dispatch. Halts the
/// machine when nothing will ever wake.
fn idle_advance(m: &mut Machine, s: &mut OsState) -> Result<NativeAction, Fault> {
    let now = m.cycles();
    let mut target = s.sched.next_page_wake();
    for pid in 0..s.processes.len() {
        if let Some(BlockReason::IoWait { channel }) = s.sched.blocked_reason(pid) {
            match m.io().channel_done_at(channel as usize) {
                Some(t) => target = Some(target.map_or(t, |x| x.min(t))),
                // The channel already went quiet (its completion was
                // delivered before the block): wake the waiter now.
                None => {
                    s.sched.wake_io(channel);
                }
            }
        }
    }
    if let Some(next) = pop_ready(s) {
        dispatch_to(m, s, next)?;
        if m.timer().is_some() {
            m.set_timer(Some(s.quantum));
        }
        return Ok(NativeAction::Resume);
    }
    let Some(target) = target else {
        // No pending page-in, no awaited channel: nothing will ever
        // wake a process again.
        return Ok(NativeAction::Halt);
    };
    let delta = target.saturating_sub(now);
    m.charge(delta);
    s.sched.stats.idle_cycles += delta;
    s.sched.wake_due(target);
    for pid in 0..s.processes.len() {
        if let Some(BlockReason::IoWait { channel }) = s.sched.blocked_reason(pid) {
            if matches!(m.io().channel_done_at(channel as usize), Some(t) if t <= target) {
                s.sched.wake_io(channel);
            }
        }
    }
    match pop_ready(s) {
        Some(next) => {
            dispatch_to(m, s, next)?;
            if m.timer().is_some() {
                // The idle charge lands on this same step, so pad the
                // quantum by it: the woken process still gets a full
                // quantum of its own execution.
                m.set_timer(Some(s.quantum + delta));
            }
            Ok(NativeAction::Resume)
        }
        None => Ok(NativeAction::Halt),
    }
}

/// Software-mediated upward call: validate the target, push a dynamic
/// return gate, and enter the higher ring.
fn upward_call(m: &mut Machine, s: &mut OsState) -> Result<NativeAction, Fault> {
    let (_, eff_ring, target, _) = m.fault_info()?;
    let mut state = m.saved_state()?;
    let sdw = match m.segment_descriptor(target.segno) {
        Ok(s) => s,
        Err(_) => return abort_current(m, s, "upward call: bad target segment"),
    };
    // Software validation mirroring Fig. 8: the target must be
    // executable, entered at a gate, and genuinely above the caller.
    if !sdw.execute || !sdw.in_bounds(target.wordno) {
        return abort_current(m, s, "upward call: target not executable");
    }
    if !sdw.is_gate(target.wordno) {
        return abort_current(m, s, "upward call: not a gate");
    }
    let new_ring = sdw.r1;
    if new_ring <= eff_ring {
        return abort_current(m, s, "upward call: not actually upward");
    }
    // The caller's declared return point (PR2) becomes the dynamic
    // return gate; the saved IPR is the CALL itself.
    let caller_ring = state.ipr.ring;
    let continuation = Ipr::new(caller_ring, state.prs[PR_RP].addr);
    s.push_return_gate(caller_ring, continuation);
    // Enter the higher ring: floor every PR ring, as a hardware upward
    // switch would.
    state.ipr = Ipr::new(new_ring, target);
    for pr in state.prs.iter_mut() {
        *pr = pr.with_ring_floor(new_ring);
    }
    m.set_saved_state(&state)?;
    Ok(NativeAction::Resume)
}

/// Software-mediated downward return: verify against the top return
/// gate and restore the caller's ring.
fn downward_return(m: &mut Machine, s: &mut OsState) -> Result<NativeAction, Fault> {
    let (_, _, target, _) = m.fault_info()?;
    let Some((gate_ring, continuation)) = s.pop_return_gate() else {
        s.stats.forged_returns_refused += 1;
        return abort_current(m, s, "downward return with no return gate");
    };
    // The returning procedure must name exactly the continuation the
    // upward call recorded ("the intervening software verifies the
    // restored stack pointer register value").
    if target != continuation.addr {
        s.stats.forged_returns_refused += 1;
        s.current_process_mut()
            .return_gates
            .push((gate_ring, continuation));
        return abort_current(m, s, "downward return to wrong continuation");
    }
    let mut state = m.saved_state()?;
    state.ipr = Ipr::new(gate_ring, continuation.addr);
    m.set_saved_state(&state)?;
    Ok(NativeAction::Resume)
}

/// Kills process `pid` without dispatching: marks it aborted and
/// removes it from the scheduler. Chaos recovery uses this to confine
/// damage to a process that is not currently running; the running
/// process's trap return stays valid.
pub(crate) fn kill_pid(s: &mut OsState, pid: usize, reason: &str) {
    if s.processes[pid].aborted.is_some() {
        return;
    }
    s.stats.aborts += 1;
    s.processes[pid].aborted = Some(reason.to_string());
    s.processes[pid].saved = None;
    s.sched.remove(pid);
}

/// Aborts the current process; switches to another live process (or
/// idles to one's wake-up) or halts the machine if none remains.
fn abort_current(m: &mut Machine, s: &mut OsState, reason: &str) -> Result<NativeAction, Fault> {
    if reason != "exit" {
        s.stats.aborts += 1;
    }
    let cur = s.current;
    s.processes[cur].aborted = Some(reason.to_string());
    s.processes[cur].saved = None;
    s.sched.remove(cur);
    s.sched.wake_due(m.cycles());
    next_or_idle(m, s)
}
