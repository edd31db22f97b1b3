//! Multiprocess storm workloads on a booted system.
//!
//! The *page storm* is the standard demand-paging stressor used by the
//! CLIs, the CI smoke test, and the record/replay suite: each process
//! gets a private paged data segment larger than the small-segment
//! threshold and a program that sweeps every page of it, writing as it
//! goes, for a configurable number of rounds. Run under a physical
//! frame budget smaller than the combined working sets, the processes
//! continually evict each other's pages — every crossing of the budget
//! exercises CLOCK selection, drum write-back, TLB shoot-down, and the
//! major-fault block/wake path; the interval timer meanwhile slices
//! the processor between them.
//!
//! The *gate storm* is its cross-ring sibling: each process hammers a
//! ring-1 supervisor gate (`ring1$acct_charge`) in a tight loop, so
//! the dominant cost is CALL/RETURN ring crossings and supervisor
//! dispatch rather than paging.

use std::sync::Arc;

use ring_core::addr::AbsAddr;
use ring_core::ring::Ring;
use ring_core::sdw::SdwBuilder;
use ring_core::word::Word;

use crate::acl::{Acl, AclEntry, Modes};
use crate::boot::System;
use crate::conventions::{ring1, segs};
use crate::process::KstEntry;
use ring_segmem::paging::PAGE_WORDS;

/// Shape of a page-storm workload.
#[derive(Clone, Copy, Debug)]
pub struct StormSpec {
    /// Number of processes to create.
    pub procs: usize,
    /// Pages in each process's private data segment.
    pub pages: u32,
    /// Sweep rounds each process performs before exiting.
    pub rounds: u32,
}

impl Default for StormSpec {
    fn default() -> Self {
        StormSpec {
            procs: 4,
            pages: 5,
            rounds: 30,
        }
    }
}

/// One installed storm process.
#[derive(Clone, Debug)]
pub struct StormProc {
    /// Process id (`login` order).
    pub pid: usize,
    /// Code segment number of the storm program.
    pub code_segno: u32,
    /// Entry offset of the storm program.
    pub entry: u32,
    /// Segment number of the process's private data segment.
    pub data_segno: u32,
    /// Absolute address of the word holding the process's round
    /// count (`None` for a caller-supplied program without one).
    pub rounds_word: Option<AbsAddr>,
}

/// The assembly of one sweep program: touch the first word of every
/// page of `data_segno` with a read-modify-write, `rounds` times, then
/// exit via the derail convention.
fn storm_source(data_segno: u32, pages: u32, rounds: u32) -> String {
    let mut text = String::from("        lda rounds\n");
    text.push_str("loop:\n");
    for p in 0..pages {
        text.push_str(&format!("        eap pr4, p{p},*\n        aos pr4|0\n"));
    }
    text.push_str("        sba one\n        tnz loop\n");
    text.push_str(&format!("        drl 0o{:o}\n", crate::traps::EXIT_CODE));
    text.push_str(&format!("rounds: dw {rounds}\none:    dw 1\n"));
    for p in 0..pages {
        text.push_str(&format!(
            "p{p}:     its 4, {data_segno}, {}\n",
            p * PAGE_WORDS
        ));
    }
    text
}

/// Builds a page-storm world on a booted system: logs in one user per
/// process, creates each process's private paged segment in on-line
/// storage (initiated but not loaded, so the first touch takes the
/// demand-paging path), installs the sweep program, and parks every
/// process on the ready queue.
///
/// The caller still chooses who runs first ([`System::prepare`]) and
/// arms the quantum; see the CLIs for the full sequence.
///
/// # Panics
///
/// Panics on exhausted memory or assembly errors — workload building
/// is expected to be well-formed.
pub fn install_page_storm(sys: &mut System, spec: &StormSpec) -> Vec<StormProc> {
    install_storm_with(sys, spec, |data_segno| {
        storm_source(data_segno, spec.pages, spec.rounds)
    })
}

/// Like [`install_page_storm`], but every process runs a copy of the
/// caller's assembly `source` instead of the generated sweep. The
/// private paged data segment is installed first, so it is always
/// segment [`STORM_DATA_SEGNO`] — programs address it as
/// `its 4, 64, <offset>`.
///
/// # Panics
///
/// Panics on exhausted memory or assembly errors.
pub fn install_storm_program(sys: &mut System, spec: &StormSpec, source: &str) -> Vec<StormProc> {
    install_storm_with(sys, spec, |_| source.to_string())
}

/// Segment number of each storm process's private paged data segment
/// (the first user segment number, allocated before the program).
pub const STORM_DATA_SEGNO: u32 = 64;

fn install_storm_with<F>(sys: &mut System, spec: &StormSpec, source_for: F) -> Vec<StormProc>
where
    F: Fn(u32) -> String,
{
    assert!(
        u64::from(spec.pages * PAGE_WORDS) > crate::services::SMALL_SEGMENT_WORDS as u64,
        "storm data segment ({} words) must exceed the small-segment \
         threshold ({} words) or it will be loaded contiguously and \
         never page",
        spec.pages * PAGE_WORDS,
        crate::services::SMALL_SEGMENT_WORDS,
    );
    let mut out = Vec::with_capacity(spec.procs);
    for i in 0..spec.procs {
        let user = format!("storm{i}");
        let pid = sys.login(&user);
        let words = (spec.pages * PAGE_WORDS) as usize;
        let id = sys
            .state
            .borrow_mut()
            .fs
            .create_segment(
                &format!("/storm/{user}/data"),
                Acl::single(
                    AclEntry::new(&user, Modes::RW, (Ring::R4, Ring::R4, Ring::R4), 0)
                        .expect("well-formed ACL"),
                ),
                std::iter::repeat_n(Word::new(i as u64 + 1), words).collect::<Arc<[Word]>>(),
            )
            .expect("create stored segment");
        // Initiate the segment by hand (the host-side twin of
        // `hcs$initiate`): KST entry plus a not-present SDW, so the
        // first reference segment-faults and builds the page table.
        let data_segno = {
            let mut st = sys.state.borrow_mut();
            let proc = &mut st.processes[pid];
            let segno = proc.alloc_segno().expect("segment number");
            proc.kst.insert(segno, KstEntry { id, loaded: false });
            segno
        };
        debug_assert_eq!(data_segno, STORM_DATA_SEGNO);
        let sdw = SdwBuilder::data(Ring::R4, Ring::R4)
            .present(false)
            .bound_words(words as u32)
            .build();
        sys.install_sdw(pid, data_segno, &sdw);
        let staged = sys.install_code(pid, Ring::R4, Ring::R4, 0, &source_for(data_segno));
        sys.prepare(pid, staged.segno, 0, Ring::R4);
        sys.park(pid);
        let code = sys.read_sdw(pid, staged.segno).addr;
        out.push(StormProc {
            pid,
            code_segno: staged.segno,
            entry: 0,
            data_segno,
            rounds_word: staged.symbols.get("rounds").map(|&w| code.wrapping_add(w)),
        });
    }
    activate_first(sys, &out);
    out
}

/// Shape of a gate-storm workload.
#[derive(Clone, Copy, Debug)]
pub struct GateStormSpec {
    /// Number of processes to create.
    pub procs: usize,
    /// Gate CALL/RETURN round trips each process performs before
    /// exiting.
    pub rounds: u32,
}

impl Default for GateStormSpec {
    fn default() -> Self {
        GateStormSpec {
            procs: 4,
            rounds: 30,
        }
    }
}

/// The assembly of one gate-storm program: `rounds` CALLs through the
/// ring-1 `acct_charge` gate, then exit via the derail convention. The
/// gate leaves its status in the accumulator, so the loop counter lives
/// in the process's private data segment (word 0), reached through an
/// indirect pointer — code segments are execute-only here.
fn gate_storm_source(data_segno: u32) -> String {
    format!(
        "loop:   eap pr1, args
        eap pr2, ret
        eap pr3, gatep,*
        call pr3|0
ret:    eap pr4, cntp,*
        lda pr4|0
        sba one
        sta pr4|0
        tnz loop
        drl 0o{exit:o}
one:    dw 1
gatep:  its 4, {ring1}, {entry}
cntp:   its 4, {data}, 0
args:   its 4, {data}, 1
",
        exit = crate::traps::EXIT_CODE,
        ring1 = segs::RING1,
        entry = ring1::ACCT_CHARGE,
        data = data_segno,
    )
}

/// Builds a gate-storm world on a booted system: one process per slot,
/// each with a small private data segment (round counter at word 0, a
/// unit charge argument at word 1) and a program that CALLs the ring-1
/// accounting gate `rounds` times. All processes are parked ready and
/// the first is activated, exactly as in [`install_page_storm`].
///
/// # Panics
///
/// Panics on exhausted memory or assembly errors.
pub fn install_gate_storm(sys: &mut System, spec: &GateStormSpec) -> Vec<StormProc> {
    let mut out = Vec::with_capacity(spec.procs);
    for i in 0..spec.procs {
        let user = format!("gate{i}");
        let pid = sys.login(&user);
        let data = sys.install_data(
            pid,
            Ring::R4,
            Ring::R4,
            &[Word::new(u64::from(spec.rounds)), Word::new(1)],
            16,
        );
        debug_assert_eq!(data.segno, STORM_DATA_SEGNO);
        let staged = sys.install_code(pid, Ring::R4, Ring::R4, 0, &gate_storm_source(data.segno));
        sys.prepare(pid, staged.segno, 0, Ring::R4);
        sys.park(pid);
        out.push(StormProc {
            pid,
            code_segno: staged.segno,
            entry: 0,
            data_segno: data.segno,
            rounds_word: Some(sys.read_sdw(pid, data.segno).addr),
        });
    }
    activate_first(sys, &out);
    out
}

/// The first installed process runs immediately: point the machine at
/// it and take it back off the ready queue (it is no longer waiting).
/// The system records the installed processes.
fn activate_first(sys: &mut System, procs: &[StormProc]) {
    let first = procs[0].clone();
    sys.prepare(first.pid, first.code_segno, first.entry, Ring::R4);
    let mut st = sys.state.borrow_mut();
    st.sched.remove(first.pid);
    st.processes[first.pid].saved = None;
    drop(st);
    sys.workload.extend_from_slice(procs);
}

impl System {
    /// Sets every installed storm process's round count to `rounds`, as
    /// if the workload had been installed with it. Equal to the stored
    /// count, this changes nothing (and dirties no copy-on-write page).
    ///
    /// # Panics
    ///
    /// Panics if a rounds word lies outside physical memory, which an
    /// install never produces.
    pub fn set_storm_rounds(&mut self, rounds: u32) {
        for abs in self.workload.iter().filter_map(|p| p.rounds_word) {
            self.machine
                .phys_mut()
                .poke(abs, Word::new(u64::from(rounds)))
                .expect("rounds word in memory");
        }
    }
}
