//! Ring-0 recovery from detected hardware damage.
//!
//! A parity-error trap names the damaged physical word; this module
//! classifies what that word *was* — page-frame contents, a page-table
//! word, a descriptor-segment word, part of a loaded segment image —
//! and repairs, rebuilds, or confines accordingly:
//!
//! * **resident page frame** — a clean page is re-fetched from its
//!   home image (the copy in core was disposable); a modified page has
//!   no good copy anywhere, so the owning process is killed and the
//!   damage confined to it;
//! * **page-table word** — the mapping can no longer be trusted: the
//!   frame is abandoned, its contents preserved on the drum, and the
//!   PTW marked missing so the next reference re-faults cleanly;
//! * **descriptor-segment word** — the **salvager** walks the whole
//!   descriptor segment and rewrites every damaged or
//!   bracket-inconsistent SDW pair as missing (the paper's R1 ≤ R2 ≤ R3
//!   invariant is the salvager's consistency test); a later reference
//!   through a salvaged SDW re-faults and demand loading rebuilds it,
//!   or aborts the one process that depended on it;
//! * **loaded segment image** — the damaged word is re-poked from
//!   on-line storage;
//! * **anything else** — the damage is confined by killing the process
//!   whose address space contains the word (the current process when
//!   no owner can be named).
//!
//! Every path ends with the poison cleared, so one injection produces
//! exactly one recovery. The recovery code touches suspect structures
//! only through `peek`/`poke` (poison-blind, never faulting on
//! parity): a recovery path that could itself take a parity trap would
//! recurse into the trap handler it is running under.
//!
//! With the fast path enabled the PTW `modified` bit can under-report
//! (a TLB-hit store needn't re-walk the PTW — the same reason eviction
//! writes every victim back), so "clean page, re-fetch from image" is
//! a policy decision, not a proof; [`crate::invariants`] re-checks the
//! world after every recovery to catch any damage that escapes.

use ring_core::addr::AbsAddr;
use ring_core::sdw::Sdw;
use ring_core::word::Word;
use ring_cpu::machine::Machine;
use ring_segmem::frames::{sweep_out, Evicted};
use ring_segmem::paging::{pages_for, Ptw, PAGE_WORDS};
use ring_segmem::PageKey;

use crate::fs::SegmentId;
use crate::state::OsState;

/// What a parity recovery decided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParityOutcome {
    /// The damage was repaired or confined to an already-stopped
    /// process; the faulting process resumes.
    Recovered,
    /// The damage is confined to the current process, which must die.
    KillCurrent(String),
}

/// Recovers from a parity error at physical word `abs`.
pub fn recover_parity(m: &mut Machine, s: &mut OsState, abs: u32) -> ParityOutcome {
    let Some(addr) = AbsAddr::new(abs) else {
        // A parity trap naming an impossible address: nothing to
        // repair, nothing to attribute.
        return ParityOutcome::KillCurrent(format!("parity error at bad address {abs:#o}"));
    };

    // (1) The damaged word is a PTW the frame pool relies on: abandon
    // the frame (its mapping is no longer trustworthy), preserve the
    // page on the drum, and mark the page missing so the next
    // reference re-faults it in.
    let released = s.frames.as_mut().and_then(|p| p.release_ptw(addr));
    if let Some((frame, owner)) = released {
        let victim = Evicted {
            owner,
            modified: true,
        };
        match sweep_out(m.phys_mut(), &victim, frame, PAGE_WORDS as usize) {
            Ok(words) => {
                if let Some(entry) = s
                    .processes
                    .get(owner.pid)
                    .and_then(|p| p.lookup(owner.segno))
                {
                    s.backing.store(
                        PageKey {
                            seg: entry.id.0,
                            page: owner.page,
                        },
                        words,
                    );
                }
            }
            // The frame itself is unreadable too; just unmap.
            Err(_) => {
                let _ = m.phys_mut().poke(addr, Ptw::MISSING.pack());
            }
        }
        m.translator_mut().flush_cache();
        m.phys_mut().clear_poison(abs);
        s.chaos.salvaged += 1;
        s.chaos.recovered += 1;
        return ParityOutcome::Recovered;
    }

    // (2) The damaged word sits inside a resident page frame: a clean
    // page is re-fetched from its home image; a modified page has no
    // good copy, so the owner dies.
    let frame_of = abs / PAGE_WORDS;
    let slot = s.frames.as_ref().and_then(|p| {
        p.resident_set()
            .iter()
            .find(|&&(f, _)| f == frame_of)
            .copied()
    });
    if let Some((frame, owner)) = slot {
        let modified = m
            .phys()
            .peek(owner.ptw_addr)
            .map(|w| Ptw::unpack(w).modified)
            .unwrap_or(true);
        let entry = s
            .processes
            .get(owner.pid)
            .and_then(|p| p.lookup(owner.segno))
            .cloned();
        if modified || entry.is_none() {
            m.phys_mut().clear_poison(abs);
            return kill_owner(
                s,
                owner.pid,
                &format!(
                    "parity error in modified page {}/{}",
                    owner.segno, owner.page
                ),
            );
        }
        let entry = entry.expect("checked above");
        let data = &s.fs.segment(entry.id).data;
        let lo = (owner.page * PAGE_WORDS) as usize;
        let mut page: Vec<Word> = data
            .iter()
            .skip(lo)
            .take(PAGE_WORDS as usize)
            .copied()
            .collect();
        page.resize(PAGE_WORDS as usize, Word::ZERO);
        let _ = m
            .phys_mut()
            .poke_block(AbsAddr::from_bits(u64::from(frame * PAGE_WORDS)), &page);
        m.translator_mut().flush_cache();
        m.phys_mut().clear_poison(abs);
        s.chaos.refetched += 1;
        s.chaos.recovered += 1;
        return ParityOutcome::Recovered;
    }

    // (3) The damaged word is part of some process's descriptor
    // segment: run the salvager over that descriptor segment.
    for pid in 0..s.processes.len() {
        let dbr = s.processes[pid].dbr;
        let lo = dbr.addr.value();
        let hi = lo + 2 * dbr.bound;
        if abs >= lo && abs < hi {
            let fixed = salvage_descriptor(m, s, pid);
            m.phys_mut().clear_poison(abs);
            s.chaos.salvaged += fixed;
            s.chaos.recovered += 1;
            return ParityOutcome::Recovered;
        }
    }

    // (4) The damaged word belongs to a loaded segment image: re-fetch
    // an unpaged image word from on-line storage, or mark a damaged
    // page-table word of a shared paged image missing.
    for i in 0..s.fs.segment_count() {
        let id = SegmentId(i as u32);
        let seg = s.fs.segment(id);
        let Some(img) = seg.image else { continue };
        let lo = img.addr.value();
        if img.unpaged {
            let hi = lo + seg.data.len() as u32;
            if abs >= lo && abs < hi {
                let w = seg.data[(abs - lo) as usize];
                let _ = m.phys_mut().poke(addr, w);
                m.phys_mut().clear_poison(abs);
                s.chaos.refetched += 1;
                s.chaos.recovered += 1;
                return ParityOutcome::Recovered;
            }
        } else {
            let hi = lo + pages_for(seg.data.len() as u32);
            if abs >= lo && abs < hi {
                // A PTW of a shared image outside any frame pool: drop
                // the mapping and let demand paging rebuild it.
                let _ = m.phys_mut().poke(addr, Ptw::MISSING.pack());
                m.translator_mut().flush_cache();
                m.phys_mut().clear_poison(abs);
                s.chaos.salvaged += 1;
                s.chaos.recovered += 1;
                return ParityOutcome::Recovered;
            }
        }
    }

    // (5) The damaged word is inside some process's private unpaged
    // segment (a stack, typically): the damage is that process's alone.
    if let Some(pid) = owner_of_unpaged_word(m, s, abs) {
        m.phys_mut().clear_poison(abs);
        return kill_owner(s, pid, &format!("parity error at {abs:#o}"));
    }

    // (6) No structure claims the word: confine to the running process.
    m.phys_mut().clear_poison(abs);
    ParityOutcome::KillCurrent(format!("parity error at {abs:#o}"))
}

/// Kills `pid` if it is not the current process (the caller's trap
/// return stays valid); asks the dispatcher to kill the current
/// process otherwise.
fn kill_owner(s: &mut OsState, pid: usize, reason: &str) -> ParityOutcome {
    if pid == s.current {
        return ParityOutcome::KillCurrent(reason.to_string());
    }
    crate::traps::kill_pid(s, pid, reason);
    s.chaos.killed += 1;
    ParityOutcome::Recovered
}

/// The salvager: walks `pid`'s descriptor segment and rewrites every
/// damaged pair — a poisoned word, or a present SDW whose brackets
/// violate R1 ≤ R2 ≤ R3 — as a missing SDW. Returns how many pairs it
/// rewrote. All access is by `peek`/`poke`: the structure under repair
/// is exactly the one that cannot be trusted to read cleanly.
pub fn salvage_descriptor(m: &mut Machine, s: &OsState, pid: usize) -> u64 {
    let dbr = s.processes[pid].dbr;
    let mut fixed = 0;
    let missing = Sdw::unpack(Word::ZERO, Word::ZERO);
    let (m0, m1) = missing.pack();
    for segno in 0..dbr.bound {
        let a0 = dbr.addr.wrapping_add(2 * segno);
        let a1 = a0.wrapping_add(1);
        let poisoned = m.phys().is_poisoned(a0) || m.phys().is_poisoned(a1);
        let (Ok(w0), Ok(w1)) = (m.phys().peek(a0), m.phys().peek(a1)) else {
            continue;
        };
        let sdw = Sdw::unpack(w0, w1);
        let brackets_ok = sdw.r1 <= sdw.r2 && sdw.r2 <= sdw.r3;
        if poisoned || (sdw.present && !brackets_ok) {
            let _ = m.phys_mut().poke(a0, m0);
            let _ = m.phys_mut().poke(a1, m1);
            m.phys_mut().clear_poison(a0.value());
            m.phys_mut().clear_poison(a1.value());
            fixed += 1;
        }
    }
    // The salvager may have rewritten pairs that cached translations
    // still mirror.
    m.translator_mut().flush_cache();
    fixed
}

/// Finds the process whose descriptor segment maps an unpaged present
/// segment containing physical word `abs`, walking descriptor segments
/// with poison-blind peeks. Shared supervisor segments appear in every
/// descriptor segment; the first claimant wins, which is the best
/// attribution available.
fn owner_of_unpaged_word(m: &Machine, s: &OsState, abs: u32) -> Option<usize> {
    for pid in 0..s.processes.len() {
        if s.processes[pid].aborted.is_some() {
            continue;
        }
        let dbr = s.processes[pid].dbr;
        for segno in 0..dbr.bound {
            let a0 = dbr.addr.wrapping_add(2 * segno);
            let a1 = a0.wrapping_add(1);
            if m.phys().is_poisoned(a0) || m.phys().is_poisoned(a1) {
                continue;
            }
            let (Ok(w0), Ok(w1)) = (m.phys().peek(a0), m.phys().peek(a1)) else {
                continue;
            };
            let sdw = Sdw::unpack(w0, w1);
            if !sdw.present || !sdw.unpaged {
                continue;
            }
            let lo = sdw.addr.value();
            let hi = lo + sdw.length_words();
            if abs >= lo && abs < hi {
                return Some(pid);
            }
        }
    }
    None
}
