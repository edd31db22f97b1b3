//! The fast-path execution engine.
//!
//! [`Machine::step`] first attempts [`Machine::try_execute_fast`]: a
//! re-implementation of the common instructions built on two caches —
//! the ring-checked translation lookaside in `ring-segmem`
//! ([`ring_segmem::fastpath::RingTlb`], reached through
//! [`ring_segmem::translate::Translator`]) and the predecoded
//! instruction cache here ([`ICache`]). The attempt either *commits* a
//! whole instruction or *bails* with every piece of machine state
//! untouched, after which the untouched slow path runs as always.
//!
//! # The parity contract
//!
//! With the fast path enabled, every architectural outcome — registers,
//! memory, faults, trap sequences, and **simulated cycle counts** — must
//! be bit-identical to a run with `MachineConfig::fastpath` off. The
//! mechanisms:
//!
//! * **Probe, then commit.** All reads during the attempt are uncounted
//!   peeks through pure TLB probes. Only a committing attempt mutates
//!   anything: it charges exactly the counted reads the slow path would
//!   have made ([`ring_segmem::phys::PhysMem::charge_reads`]), performs
//!   the (peek-preverified) operand write for real, and applies the
//!   instruction's register effects via the *same* helpers the slow
//!   path uses ([`Machine::exec_read_op`] and friends).
//! * **Bail on anything that could fault.** Denials, bound overruns,
//!   missing pages, decode errors, indirect-limit overruns: the fast
//!   path never produces a fault itself; it steps aside and lets the
//!   slow path produce it, byte-for-byte.
//! * **Bail on anything rare.** CALL, RETURN, SPRI, DRL and the
//!   privileged instructions always take the slow path — they are
//!   exactly the paths whose full Figs. 8/9 sequencing is the point of
//!   the simulator.
//! * **Mirror the observability surface.** A committed fast instruction
//!   reports the same SDW-lookup, access-heatmap, instruction-mix and
//!   EA-depth events to `ring-metrics`, and the same [`TraceEvent`], as
//!   its slow twin.
//!
//! The instruction cache needs no invalidation protocol: each fetch
//! re-peeks the instruction word through the TLB translation and a hit
//! additionally requires the cached raw word to match, so self-modifying
//! code, DMA into code pages, and DBR switches all miss naturally.

use ring_core::access::AccessMode;
use ring_core::addr::{SegAddr, SegNo, WordNo, MAX_WORDNO};
use ring_core::effective;
use ring_core::registers::{IndWord, Ipr, PtrReg};
use ring_core::ring::Ring;
use ring_core::word::Word;
use ring_metrics::EventSink;

use crate::isa::{AddrMode, Instr, Opcode, OperandUse};
use crate::machine::Machine;
use crate::trace::TraceEvent;

/// Number of direct-mapped predecoded-instruction slots.
const ICACHE_SLOTS: usize = 1024;

/// Key marking an empty slot (real keys fit in 33 bits).
const ICACHE_EMPTY: u64 = u64::MAX;

/// `(segno, wordno)` packed into one key.
#[inline]
fn icache_key(addr: SegAddr) -> u64 {
    (u64::from(addr.segno.value()) << 18) | u64::from(addr.wordno.value())
}

#[inline]
fn icache_slot(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize & (ICACHE_SLOTS - 1)
}

#[derive(Clone, Copy)]
struct ICacheEntry {
    key: u64,
    /// Raw instruction word the decode was made from. A hit requires
    /// the word currently in memory to match, which is what makes the
    /// cache self-invalidating.
    raw: u64,
    instr: Instr,
    /// `instr.opcode.operand_use()`, precomputed at install.
    use_class: OperandUse,
    /// Fast-path eligible: not privileged and not DRL. Cached so a hit
    /// on an ineligible instruction bails without re-deriving it.
    eligible: bool,
}

impl ICacheEntry {
    fn new(key: u64, raw: u64, instr: Instr) -> ICacheEntry {
        ICacheEntry {
            key,
            raw,
            instr,
            use_class: instr.opcode.operand_use(),
            eligible: !instr.opcode.privileged() && !matches!(instr.opcode, Opcode::Drl),
        }
    }

    fn empty() -> ICacheEntry {
        ICacheEntry {
            key: ICACHE_EMPTY,
            ..ICacheEntry::new(0, 0, Instr::direct(Opcode::Nop, 0))
        }
    }
}

/// Direct-mapped cache of decoded instructions keyed by `(segno,
/// wordno)` and guarded by a raw-word comparison.
///
/// Slots are flat (a sentinel key marks empty ones, not an `Option`),
/// keeping each entry one 32-byte load and the hit test one fused
/// compare — this lookup sits on the critical path of every fast-path
/// instruction.
pub(crate) struct ICache {
    /// Fixed-size boxed array, masked indexing — no bounds check.
    slots: Box<[ICacheEntry; ICACHE_SLOTS]>,
    /// Fetches served from the cache (observability only).
    pub(crate) hits: u64,
    /// Fetches that had to decode (observability only).
    pub(crate) misses: u64,
    /// Whether an entry was installed since the cache was last emptied
    /// (an untouched cache needs no clearing).
    touched: bool,
}

impl ICache {
    fn new() -> ICache {
        ICache {
            // Filled in place on the heap (a boxed array literal is
            // built on the stack and copied).
            slots: vec![ICacheEntry::empty(); ICACHE_SLOTS]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("ICACHE_SLOTS entries")),
            hits: 0,
            misses: 0,
            touched: false,
        }
    }

    /// Empties the cache and zeroes its counters, as a new one.
    fn clear(&mut self) {
        if self.touched {
            self.slots.fill(ICacheEntry::empty());
            self.touched = false;
        }
        self.hits = 0;
        self.misses = 0;
    }

    /// Returns the decoded instruction (and its precomputed operand
    /// class) for the word `raw` found at `addr`, from cache when the
    /// raw word still matches, decoding (and installing) otherwise.
    /// `None` on a decode error — those are faults and belong to the
    /// slow path — and on fast-path-ineligible instructions (the
    /// privileged group and DRL), which bail to their reference
    /// implementation.
    #[inline(always)]
    pub(crate) fn lookup_or_decode(
        &mut self,
        addr: SegAddr,
        raw: Word,
    ) -> Option<(Instr, OperandUse)> {
        let key = icache_key(addr);
        let slot = icache_slot(key);
        let e = &self.slots[slot];
        if ((e.key ^ key) | (e.raw ^ raw.raw())) == 0 {
            let hit = *e;
            self.hits += 1;
            if !hit.eligible {
                return None;
            }
            return Some((hit.instr, hit.use_class));
        }
        let instr = Instr::decode(raw).ok()?;
        self.misses += 1;
        let entry = ICacheEntry::new(key, raw.raw(), instr);
        let out = entry.eligible.then_some((instr, entry.use_class));
        self.slots[slot] = entry;
        self.touched = true;
        out
    }

    /// Installs a decode performed by the slow path (warming).
    #[inline]
    pub(crate) fn install(&mut self, addr: SegAddr, raw: Word, instr: Instr) {
        let key = icache_key(addr);
        self.slots[icache_slot(key)] = ICacheEntry::new(key, raw.raw(), instr);
        self.touched = true;
    }
}

/// Per-machine fast-path working state.
pub(crate) struct FastState {
    pub(crate) icache: ICache,
    /// Reusable buffer of heatmap events accumulated during an attempt
    /// and reported only on commit.
    access_buf: Vec<(u32, AccessMode)>,
    /// Whether the current attempt records observability events
    /// (latched from `Metrics::is_enabled` at attempt start, so the
    /// disabled-metrics hot path skips the buffer entirely).
    record: bool,
}

impl FastState {
    pub(crate) fn new() -> FastState {
        FastState {
            icache: ICache::new(),
            access_buf: Vec::with_capacity(8),
            record: false,
        }
    }

    /// Returns to the state of [`FastState::new`], reusing storage.
    pub(crate) fn reset(&mut self) {
        self.icache.clear();
        self.access_buf.clear();
        self.record = false;
    }
}

/// Fast-path effective address: the TPR equivalent plus the immediate
/// literal and the chain depth (for the Fig. 5 telemetry event).
struct FastEa {
    ring: Ring,
    addr: SegAddr,
    immediate: Option<Word>,
    depth: u32,
}

impl Machine {
    /// Attempts one whole instruction on the fast path. `Some(())`
    /// means the instruction committed (with all side effects, charges
    /// and telemetry applied); `None` means *nothing* was mutated and
    /// the caller must run the slow path.
    pub(crate) fn try_execute_fast(&mut self) -> Option<()> {
        let at0 = self.ipr;
        let iaddr = at0.addr;
        // Fig. 4 fetch verdict in one probe. A native-handled segment's
        // entry carries the slow-fetch bit and fails this probe, so the
        // intercept in `execute_one` is never bypassed.
        let fetch = self
            .tr
            .fast_probe(&self.phys, iaddr, at0.ring, AccessMode::Execute)?;
        // Peeks are poison-blind, so every word the fast path consumes
        // must be checked explicitly: a poisoned word bails to the slow
        // path, whose counted read raises the parity-error trap at the
        // identical instruction.
        if self.phys.is_poisoned(fetch.abs) {
            return None;
        }
        let iword = self.phys.peek(fetch.abs).ok()?;
        // The cache also answers eligibility: the privileged group and
        // DRL (and, below, CALL/RETURN/SPRI) keep their reference
        // implementation, so a lookup on one of those bails here.
        let (instr, use_class) = self.fast.icache.lookup_or_decode(iaddr, iword)?;

        // Counted reads and SDW lookups the slow path would have made.
        let mut reads = fetch.ptw_reads + 1;
        let mut lookups = 1u64;
        self.fast.record = self.metrics.is_enabled();
        if self.fast.record {
            self.fast.access_buf.clear();
            self.fast
                .access_buf
                .push((iaddr.segno.value(), AccessMode::Execute));
        }

        match use_class {
            OperandUse::None => {
                // Nop or Neg (Drl bailed above, Rett/Halt are
                // privileged); neither can fault.
                self.fast_commit(at0, instr, use_class, reads, lookups, None);
                self.exec_no_operand(instr).expect("NOP/NEG cannot fault");
                Some(())
            }
            OperandUse::Read => {
                let ea = self.fast_form_ea(&instr, iaddr.segno, &mut reads, &mut lookups)?;
                let value = match ea.immediate {
                    Some(lit) => lit,
                    None => {
                        let hit =
                            self.tr
                                .fast_probe(&self.phys, ea.addr, ea.ring, AccessMode::Read)?;
                        if self.phys.is_poisoned(hit.abs) {
                            return None;
                        }
                        let v = self.phys.peek(hit.abs).ok()?;
                        reads += hit.ptw_reads + 1;
                        lookups += 1;
                        if self.fast.record {
                            self.fast
                                .access_buf
                                .push((ea.addr.segno.value(), AccessMode::Read));
                        }
                        v
                    }
                };
                let ea_event = ea
                    .immediate
                    .is_none()
                    .then_some((ea.depth, ea.ring.number() > at0.ring.number()));
                self.fast_commit(at0, instr, use_class, reads, lookups, ea_event);
                self.exec_read_op(instr, value)
                    .expect("read-group ops cannot fault");
                Some(())
            }
            OperandUse::Write => {
                let ea = self.fast_form_ea(&instr, iaddr.segno, &mut reads, &mut lookups)?;
                if ea.immediate.is_some() {
                    return None; // IllegalModifier on the slow path
                }
                let hit = self
                    .tr
                    .fast_probe(&self.phys, ea.addr, ea.ring, AccessMode::Write)?;
                // Preverify so the committed write cannot fault.
                self.phys.peek(hit.abs).ok()?;
                reads += hit.ptw_reads;
                lookups += 1;
                if self.fast.record {
                    self.fast
                        .access_buf
                        .push((ea.addr.segno.value(), AccessMode::Read));
                }
                let value = self.write_value(instr);
                let ea_event = Some((ea.depth, ea.ring.number() > at0.ring.number()));
                self.fast_commit(at0, instr, use_class, reads, lookups, ea_event);
                self.phys
                    .write(hit.abs, value)
                    .expect("peek-verified address");
                Some(())
            }
            OperandUse::ReadWrite => {
                // AOS: both capabilities, one resolve with write intent.
                let ea = self.fast_form_ea(&instr, iaddr.segno, &mut reads, &mut lookups)?;
                if ea.immediate.is_some() {
                    return None;
                }
                let hw = self.tr.fast_probe_rw(&self.phys, ea.addr, ea.ring)?;
                if self.phys.is_poisoned(hw.abs) {
                    return None;
                }
                let v = self.phys.peek(hw.abs).ok()?.wrapping_add(Word::new(1));
                reads += hw.ptw_reads + 1;
                lookups += 1;
                if self.fast.record {
                    self.fast
                        .access_buf
                        .push((ea.addr.segno.value(), AccessMode::Read));
                }
                let ea_event = Some((ea.depth, ea.ring.number() > at0.ring.number()));
                self.fast_commit(at0, instr, use_class, reads, lookups, ea_event);
                self.phys.write(hw.abs, v).expect("peek-verified address");
                self.set_indicators(v);
                Some(())
            }
            OperandUse::Pointer => {
                // EAP: no operand reference, no validation.
                let ea = self.fast_form_ea(&instr, iaddr.segno, &mut reads, &mut lookups)?;
                if ea.immediate.is_some() {
                    return None;
                }
                let ea_event = Some((ea.depth, ea.ring.number() > at0.ring.number()));
                self.fast_commit(at0, instr, use_class, reads, lookups, ea_event);
                self.prs[instr.xreg as usize] = PtrReg::new(ea.ring, ea.addr);
                Some(())
            }
            OperandUse::Transfer => {
                let ea = self.fast_form_ea(&instr, iaddr.segno, &mut reads, &mut lookups)?;
                if ea.immediate.is_some() {
                    return None;
                }
                let taken = self.transfer_taken(instr.opcode);
                if taken {
                    // Fig. 7 advance check: one SDW lookup, no operand
                    // reference.
                    if !self.tr.fast_probe_transfer(ea.addr, ea.ring) {
                        return None;
                    }
                    lookups += 1;
                    if self.fast.record {
                        self.fast
                            .access_buf
                            .push((ea.addr.segno.value(), AccessMode::Read));
                    }
                }
                let ea_event = Some((ea.depth, ea.ring.number() > at0.ring.number()));
                self.fast_commit(at0, instr, use_class, reads, lookups, ea_event);
                if taken {
                    self.ipr.addr = ea.addr;
                }
                Some(())
            }
            OperandUse::AddressOnly => {
                let ea = self.fast_form_ea(&instr, iaddr.segno, &mut reads, &mut lookups)?;
                let count = u64::from(ea.addr.wordno.value());
                let ea_event = ea
                    .immediate
                    .is_none()
                    .then_some((ea.depth, ea.ring.number() > at0.ring.number()));
                self.fast_commit(at0, instr, use_class, reads, lookups, ea_event);
                self.exec_address_only(instr, count);
                Some(())
            }
            // CALL/RETURN ring switching and the SPRI double store stay
            // on the reference path.
            OperandUse::Call | OperandUse::Return | OperandUse::WritePair => None,
        }
    }

    /// Fig. 5 effective-address formation on pure probes. Mirrors
    /// [`Machine::form_ea`] exactly; `None` bails (chain too long, a
    /// probe missed, or a word was unreachable).
    fn fast_form_ea(
        &mut self,
        instr: &Instr,
        iseg: SegNo,
        reads: &mut u64,
        lookups: &mut u64,
    ) -> Option<FastEa> {
        let mut offset = instr.offset;
        match instr.mode {
            AddrMode::Immediate => {
                return Some(FastEa {
                    ring: self.ipr.ring,
                    addr: SegAddr::new(iseg, WordNo::from_bits(u64::from(offset))),
                    immediate: Some(Word::new(u64::from(offset))),
                    depth: 0,
                });
            }
            AddrMode::Indexed => {
                offset = (offset + self.x[instr.xreg as usize]) & MAX_WORDNO;
            }
            AddrMode::None => {}
        }
        let (mut ring, mut addr) = match instr.pr {
            Some(n) => {
                let pr = self.prs[n as usize];
                (
                    effective::fold_pr(self.ipr.ring, pr.ring, self.config.ea_rules),
                    SegAddr::new(pr.addr.segno, pr.addr.wordno.wrapping_add(offset)),
                )
            }
            None => (
                self.ipr.ring,
                SegAddr::new(iseg, WordNo::from_bits(u64::from(offset))),
            ),
        };
        let mut indirect = instr.indirect;
        let mut depth = 0u32;
        while indirect {
            depth += 1;
            if depth > self.config.indirect_limit {
                return None; // IndirectLimit on the slow path
            }
            let hit0 = self
                .tr
                .fast_probe(&self.phys, addr, ring, AccessMode::Read)?;
            let second = SegAddr::new(addr.segno, addr.wordno.wrapping_add(1));
            // The probe's per-page bound test is exactly the SDW bound
            // check the slow path applies to the pair's second word.
            let hit1 = self
                .tr
                .fast_probe(&self.phys, second, ring, AccessMode::Read)?;
            if self.phys.is_poisoned(hit0.abs) || self.phys.is_poisoned(hit1.abs) {
                return None;
            }
            let w0 = self.phys.peek(hit0.abs).ok()?;
            let w1 = self.phys.peek(hit1.abs).ok()?;
            *reads += hit0.ptw_reads + hit1.ptw_reads + 2;
            *lookups += 1;
            if self.fast.record {
                self.fast
                    .access_buf
                    .push((addr.segno.value(), AccessMode::Read));
            }
            let iw = IndWord::unpack(w0, w1);
            ring = effective::fold_indirect_parts(ring, iw.ring, hit0.r1, self.config.ea_rules);
            addr = iw.addr;
            indirect = iw.indirect;
        }
        Some(FastEa {
            ring,
            addr,
            immediate: None,
            depth,
        })
    }

    /// Commits an attempt: charges the counted reads, credits the cache
    /// statistics, mirrors the slow path's trace and metrics events, and
    /// advances the instruction counter (transfers overwrite it after).
    fn fast_commit(
        &mut self,
        at0: Ipr,
        instr: Instr,
        use_class: OperandUse,
        reads: u64,
        lookups: u64,
        ea_event: Option<(u32, bool)>,
    ) {
        self.phys.charge_reads(reads);
        self.tr.fast_commit_hits(lookups);
        self.stats.fast_steps += 1;
        self.trace.push(|| TraceEvent::Instr { at: at0, instr });
        // `last_use` stays `None`: its only consumer attributes cycle
        // costs to the CALL/RETURN histograms, and those two classes
        // never commit here.
        if self.fast.record {
            self.metrics.instruction(at0.ring, use_class.metric_class());
            for _ in 0..lookups {
                self.metrics.sdw_lookup(true, 0);
            }
            let buf = std::mem::take(&mut self.fast.access_buf);
            for &(segno, mode) in &buf {
                self.metrics.access(segno, mode);
            }
            self.fast.access_buf = buf;
            if let Some((depth, maximised)) = ea_event {
                self.metrics.ea_formed(depth, maximised);
            }
        }
        self.ipr.addr = SegAddr::new(at0.addr.segno, at0.addr.wordno.wrapping_add(1));
    }
}
