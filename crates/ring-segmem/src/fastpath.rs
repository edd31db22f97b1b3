//! The ring-checked translation lookaside — the fast-path half of the
//! paper's "protection checks are free on the common path" claim,
//! applied to *wall-clock* time.
//!
//! Architecturally the simulator already makes same-ring references
//! cheap in simulated cycles: the SDW associative memory
//! ([`crate::sdw_cache`]) absorbs descriptor walks. But the host still
//! pays for a full SDW fetch, Fig. 4/6 bracket validation, and a page
//! walk on every reference. [`RingTlb`] collapses that pipeline into one
//! lookup: an entry caches, for one `(segment, page, ring)`, the
//! precomputed access verdict for all three modes
//! ([`ring_core::summary::AccessSummary`] reduced to a 3-bit mask), the
//! absolute address of the page origin, the in-page bound, and — for
//! paged segments — the raw PTW word the translation was derived from.
//!
//! The issue asks for keying by `(segno, page, ring, mode)`; folding the
//! three mode verdicts into one entry per `(segno, page, ring)` is the
//! same cache with the mode dimension packed into a bitmask — one probe
//! still answers exactly one `(segno, page, ring, mode)` question.
//!
//! # Why this can never change an architectural outcome
//!
//! - **Probes are pure.** A probe mutates nothing — no statistics, no
//!   counted memory traffic. A failed probe ("bail") therefore leaves
//!   the machine exactly where the slow path expects to find it.
//! - **SDW staleness mirrors the associative memory.** An entry is only
//!   installed while its segment is resident in the [`crate::sdw_cache`]
//!   with identical content, and every event that ends that residency
//!   (eviction, in-place replacement, invalidation, flush) invalidates
//!   the corresponding TLB entries — [`crate::translate::Translator`]
//!   enforces this. A raw poke into descriptor memory is served stale by
//!   both caches equally, which is the architecture's own (documented)
//!   behaviour, not a fast-path artefact.
//! - **PTW staleness is checked per probe.** Each paged probe re-reads
//!   the PTW word with an uncounted peek and compares it against the
//!   cached raw word; any supervisor remap, poke, or DMA write to the
//!   page table misses the comparison and falls back to the slow path.
//!   Entries also only vouch for pages whose used (and, for writes,
//!   modified) bits are already set, because the slow path *writes* the
//!   PTW when it has to turn those bits on — a reference the fast path
//!   must not skip.
//! - **Flush is an epoch bump.** DBR loads flush in O(1) by
//!   incrementing a generation counter; entries from older epochs never
//!   match.

use ring_core::access::AccessMode;
use ring_core::addr::{AbsAddr, SegAddr, SegNo, MAX_SEGNO};
use ring_core::ring::Ring;
use ring_core::sdw::Sdw;
use ring_core::summary::AccessSummary;

use crate::paging::{split_wordno, Ptw, PAGE_SHIFT, PAGE_WORDS};
use crate::phys::PhysMem;

/// Number of direct-mapped slots.
const TLB_SLOTS: usize = 1024;
/// Key value marking an empty slot (real keys are 26 bits).
const EMPTY: u32 = u32::MAX;

/// Mode bits within [`TlbEntry::modes`].
const MODE_READ: u8 = 1 << 0;
const MODE_WRITE: u8 = 1 << 1;
const MODE_EXECUTE: u8 = 1 << 2;
/// Set when instruction fetches from this segment must take the slow
/// path (a native handler intercepts them there).
const SLOW_FETCH: u8 = 1 << 3;

fn mode_bit(mode: AccessMode) -> u8 {
    match mode {
        AccessMode::Read => MODE_READ,
        AccessMode::Write => MODE_WRITE,
        AccessMode::Execute => MODE_EXECUTE,
    }
}

/// `segno[15] | page[8] | ring[3]` — 26 bits.
#[inline]
fn key_of(segno: SegNo, page: u32, ring: Ring) -> u32 {
    (segno.value() << 11) | (page << 3) | u32::from(ring.number())
}

#[inline]
fn slot_of(key: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B1) >> 22) as usize & (TLB_SLOTS - 1)
}

#[derive(Clone, Copy)]
struct TlbEntry {
    key: u32,
    epoch: u32,
    /// Absolute address of the page origin (for unpaged segments, of
    /// `base + page * 1024`).
    base: u32,
    /// Valid in-page offsets are `< limit` (equivalently, the word
    /// number passes the SDW bound check iff `offset < limit`).
    limit: u32,
    modes: u8,
    r1: u8,
    segno: u16,
    paged: bool,
    /// The slow path would resolve a read/execute reference with a
    /// single counted PTW read (used bit already on).
    ptw_ok_read: bool,
    /// Likewise for writes (modified bit already on).
    ptw_ok_write: bool,
    ptw_addr: u32,
    ptw_word: u64,
}

const EMPTY_ENTRY: TlbEntry = TlbEntry {
    key: EMPTY,
    epoch: 0,
    base: 0,
    limit: 0,
    modes: 0,
    r1: 0,
    segno: 0,
    paged: false,
    ptw_ok_read: false,
    ptw_ok_write: false,
    ptw_addr: 0,
    ptw_word: 0,
};

/// A successful fast-path translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FastHit {
    /// Absolute address of the referenced word.
    pub abs: AbsAddr,
    /// Counted physical reads the slow path would have made to walk the
    /// page table for this reference (0 unpaged, 1 paged).
    pub ptw_reads: u64,
    /// The containing segment's write-bracket top, for Fig. 5 folds at
    /// indirect words.
    pub r1: Ring,
}

/// Hit/miss/maintenance statistics for the lookaside.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Committed fast-path translations.
    pub hits: u64,
    /// Fast-path attempts abandoned to the slow path.
    pub misses: u64,
    /// Entries installed.
    pub installs: u64,
    /// Per-segment invalidation sweeps.
    pub invalidations: u64,
    /// Full flushes (DBR loads).
    pub flushes: u64,
}

/// The ring-checked translation lookaside (direct-mapped, 1024 slots).
#[derive(Clone)]
pub struct RingTlb {
    /// Fixed-size boxed array (not a `Vec`): the slot index is always
    /// masked to the table size, so indexing compiles without a bounds
    /// check — this lookup is on the critical path of every fast-path
    /// reference.
    slots: Box<[TlbEntry; TLB_SLOTS]>,
    epoch: u32,
    /// Occupied-slot count per segment number, so invalidating a segment
    /// that was never cached is O(1). Counts include stale-epoch entries
    /// (they still occupy slots) and are maintained on overwrite.
    seg_counts: Vec<u16>,
    /// Whether an entry was installed since the table was last emptied
    /// (an untouched table needs no clearing).
    touched: bool,
    stats: TlbStats,
}

impl Default for RingTlb {
    fn default() -> Self {
        RingTlb::new()
    }
}

impl RingTlb {
    /// Creates an empty lookaside.
    pub fn new() -> RingTlb {
        RingTlb {
            // Filled in place on the heap (a boxed array literal is
            // built on the stack and copied).
            slots: vec![EMPTY_ENTRY; TLB_SLOTS]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("TLB_SLOTS entries")),
            epoch: 0,
            seg_counts: vec![0; MAX_SEGNO as usize + 1],
            touched: false,
            stats: TlbStats::default(),
        }
    }

    /// Probes for a reference of `mode` to `addr` from `ring`.
    ///
    /// Pure: mutates neither the lookaside nor `phys` (the PTW
    /// staleness check is an uncounted peek). `None` means "take the
    /// slow path", never "access denied" — denial verdicts are not
    /// cached, so a miss and a violation are indistinguishable here and
    /// both re-run the full check.
    #[inline(always)]
    pub fn probe(
        &self,
        phys: &PhysMem,
        addr: SegAddr,
        ring: Ring,
        mode: AccessMode,
    ) -> Option<FastHit> {
        let (page, offset) = split_wordno(addr.wordno);
        let key = key_of(addr.segno, page, ring);
        let e = &self.slots[slot_of(key)];
        if e.key != key || e.epoch != self.epoch || offset >= e.limit {
            return None;
        }
        if e.modes & mode_bit(mode) == 0 {
            return None;
        }
        if mode == AccessMode::Execute && e.modes & SLOW_FETCH != 0 {
            return None;
        }
        if e.paged {
            let ok = match mode {
                AccessMode::Write => e.ptw_ok_write,
                _ => e.ptw_ok_read,
            };
            if !ok {
                return None;
            }
            let current = phys.peek(AbsAddr::from_bits(u64::from(e.ptw_addr))).ok()?;
            if current.raw() != e.ptw_word {
                return None;
            }
        }
        Some(FastHit {
            abs: AbsAddr::from_bits(u64::from(e.base) + u64::from(offset)),
            ptw_reads: u64::from(e.paged),
            r1: Ring::from_bits(u64::from(e.r1)),
        })
    }

    /// Probes a read-modify-write reference (AOS): both the read and
    /// the write capability in one pass. Equivalent to a Read probe
    /// followed by a Write probe — the write-side PTW condition
    /// (`modified` set) implies the read side (`used` set) — but does
    /// the key match, bound test and PTW staleness compare once. Pure.
    #[inline(always)]
    pub fn probe_rw(&self, phys: &PhysMem, addr: SegAddr, ring: Ring) -> Option<FastHit> {
        let (page, offset) = split_wordno(addr.wordno);
        let key = key_of(addr.segno, page, ring);
        let e = &self.slots[slot_of(key)];
        if e.key != key || e.epoch != self.epoch || offset >= e.limit {
            return None;
        }
        if e.modes & (MODE_READ | MODE_WRITE) != (MODE_READ | MODE_WRITE) {
            return None;
        }
        if e.paged {
            if !e.ptw_ok_write {
                return None;
            }
            let current = phys.peek(AbsAddr::from_bits(u64::from(e.ptw_addr))).ok()?;
            if current.raw() != e.ptw_word {
                return None;
            }
        }
        Some(FastHit {
            abs: AbsAddr::from_bits(u64::from(e.base) + u64::from(offset)),
            ptw_reads: u64::from(e.paged),
            r1: Ring::from_bits(u64::from(e.r1)),
        })
    }

    /// Probes the Fig. 7 transfer verdict for `addr` from `ring`:
    /// presence, bound, execute flag, and execute bracket. Pure. A
    /// transfer names its target without referencing it, so no PTW
    /// check applies (the verdict holds even for a missing page), and
    /// native-handled segments are transferable like any other.
    #[inline(always)]
    pub fn probe_transfer(&self, addr: SegAddr, ring: Ring) -> bool {
        let (page, offset) = split_wordno(addr.wordno);
        let key = key_of(addr.segno, page, ring);
        let e = &self.slots[slot_of(key)];
        e.key == key && e.epoch == self.epoch && offset < e.limit && e.modes & MODE_EXECUTE != 0
    }

    /// Installs the translation covering `addr` as seen from `ring`,
    /// derived from `sdw` (which the caller just used for a successful
    /// slow-path reference). `slow_fetch` marks segments whose
    /// instruction fetches a native handler intercepts.
    pub fn install(
        &mut self,
        phys: &PhysMem,
        addr: SegAddr,
        ring: Ring,
        sdw: &Sdw,
        slow_fetch: bool,
    ) {
        let summary = AccessSummary::of(sdw);
        let (page, _) = split_wordno(addr.wordno);
        let limit = summary
            .length_words
            .saturating_sub(page << PAGE_SHIFT)
            .min(PAGE_WORDS);
        if limit == 0 {
            return;
        }
        let mut modes = 0u8;
        for (mode, bit) in [
            (AccessMode::Read, MODE_READ),
            (AccessMode::Write, MODE_WRITE),
            (AccessMode::Execute, MODE_EXECUTE),
        ] {
            if summary.allows(ring, mode) {
                modes |= bit;
            }
        }
        if slow_fetch {
            modes |= SLOW_FETCH;
        }
        let (base, paged, ptw_ok_read, ptw_ok_write, ptw_addr, ptw_word);
        if sdw.unpaged {
            base = sdw.addr.wrapping_add(page << PAGE_SHIFT);
            paged = false;
            ptw_ok_read = false;
            ptw_ok_write = false;
            ptw_addr = AbsAddr::from_bits(0);
            ptw_word = 0;
        } else {
            ptw_addr = sdw.addr.wrapping_add(page);
            let Ok(raw) = phys.peek(ptw_addr) else {
                return;
            };
            let ptw = Ptw::unpack(raw);
            base = ptw.frame_base();
            paged = true;
            // The slow path flips used/modified with a counted PTW
            // write; only vouch for references it would serve with a
            // lone PTW read.
            ptw_ok_read = ptw.present && ptw.used;
            ptw_ok_write = ptw.present && ptw.used && ptw.modified;
            ptw_word = raw.raw();
        }
        let key = key_of(addr.segno, page, ring);
        let slot = slot_of(key);
        let old = &self.slots[slot];
        if old.key != EMPTY {
            self.seg_counts[usize::from(old.segno)] -= 1;
        }
        self.slots[slot] = TlbEntry {
            key,
            epoch: self.epoch,
            base: base.value(),
            limit,
            modes,
            r1: sdw.r1.number(),
            segno: addr.segno.value() as u16,
            paged,
            ptw_ok_read,
            ptw_ok_write,
            ptw_addr: ptw_addr.value(),
            ptw_word,
        };
        self.seg_counts[addr.segno.value() as usize] += 1;
        self.touched = true;
        self.stats.installs += 1;
    }

    /// Drops every entry for `segno` (SDW changed, evicted from the
    /// associative memory, or a native handler was registered).
    pub fn invalidate_segment(&mut self, segno: SegNo) {
        self.stats.invalidations += 1;
        if self.seg_counts[segno.value() as usize] == 0 {
            return;
        }
        let target = segno.value() as u16;
        for e in self.slots.iter_mut() {
            if e.key != EMPTY && e.segno == target {
                *e = EMPTY_ENTRY;
            }
        }
        self.seg_counts[segno.value() as usize] = 0;
    }

    /// Flushes everything in O(1) by starting a new epoch (DBR load).
    pub fn flush(&mut self) {
        self.stats.flushes += 1;
        if self.epoch == u32::MAX {
            // Epoch wrap: fall back to a hard clear so pre-wrap entries
            // cannot alias the restarted counter.
            self.slots.fill(EMPTY_ENTRY);
            self.seg_counts.fill(0);
            self.epoch = 0;
        } else {
            self.epoch += 1;
        }
    }

    /// Empties the lookaside without counting a flush, leaving the
    /// statistics counters intact. Used when restoring a machine image:
    /// the lookaside is architecturally invisible, so a restore starts
    /// it cold, but the counters accumulated so far (e.g. the flushes
    /// world-building performed) are preserved so that a replay in an
    /// identically built world reports identical statistics.
    pub fn clear_preserving_stats(&mut self) {
        if self.touched {
            self.slots.fill(EMPTY_ENTRY);
            self.seg_counts.fill(0);
            self.touched = false;
        }
    }

    /// Chaos hook: damages one live entry, chosen deterministically by
    /// `pick`, and discards it — modelling a cache-parity detection,
    /// where the hardware's recovery is simply to drop the entry and
    /// re-walk. Returns the segment the entry mapped, or `None` when
    /// the lookaside holds no live entry to damage.
    pub fn chaos_discard(&mut self, pick: u64) -> Option<u32> {
        let live: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, e)| e.key != EMPTY && e.epoch == self.epoch)
            .map(|(i, _)| i)
            .collect();
        if live.is_empty() {
            return None;
        }
        let idx = live[(pick % live.len() as u64) as usize];
        let segno = self.slots[idx].segno;
        self.slots[idx] = EMPTY_ENTRY;
        self.seg_counts[usize::from(segno)] -= 1;
        Some(u32::from(segno))
    }

    /// Records `n` committed fast-path translations.
    #[inline]
    pub fn note_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// Records one abandoned fast-path attempt.
    #[inline]
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Overwrites the statistics counters (checkpoint restore); the
    /// entries are untouched.
    pub fn restore_stats(&mut self, stats: TlbStats) {
        self.stats = stats;
    }
}

impl core::fmt::Debug for RingTlb {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let occupied = self.slots.iter().filter(|e| e.key != EMPTY).count();
        f.debug_struct("RingTlb")
            .field("occupied", &occupied)
            .field("epoch", &self.epoch)
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_core::sdw::SdwBuilder;

    fn addr(s: u32, w: u32) -> SegAddr {
        SegAddr::from_parts(s, w).unwrap()
    }

    fn unpaged_sdw() -> Sdw {
        SdwBuilder::data(Ring::R4, Ring::R5)
            .addr(AbsAddr::new(0o2000).unwrap())
            .bound_words(64)
            .build()
    }

    #[test]
    fn probe_misses_until_installed() {
        let phys = PhysMem::new(1 << 16);
        let mut tlb = RingTlb::new();
        assert!(tlb
            .probe(&phys, addr(3, 5), Ring::R4, AccessMode::Read)
            .is_none());
        tlb.install(&phys, addr(3, 5), Ring::R4, &unpaged_sdw(), false);
        let hit = tlb
            .probe(&phys, addr(3, 5), Ring::R4, AccessMode::Read)
            .unwrap();
        assert_eq!(hit.abs.value(), 0o2005);
        assert_eq!(hit.ptw_reads, 0);
        assert_eq!(hit.r1, Ring::R4);
    }

    #[test]
    fn probe_verdicts_match_the_summary() {
        let phys = PhysMem::new(1 << 16);
        let mut tlb = RingTlb::new();
        let sdw = unpaged_sdw(); // write [0,4], read [0,5], no execute
        for ring in Ring::all() {
            tlb.install(&phys, addr(3, 0), ring, &sdw, false);
            let summary = AccessSummary::of(&sdw);
            for mode in [AccessMode::Read, AccessMode::Write, AccessMode::Execute] {
                assert_eq!(
                    tlb.probe(&phys, addr(3, 0), ring, mode).is_some(),
                    summary.allows(ring, mode),
                    "{ring} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn probe_enforces_bounds_per_page() {
        let phys = PhysMem::new(1 << 16);
        let mut tlb = RingTlb::new();
        tlb.install(&phys, addr(3, 0), Ring::R4, &unpaged_sdw(), false);
        assert!(tlb
            .probe(&phys, addr(3, 63), Ring::R4, AccessMode::Read)
            .is_some());
        assert!(tlb
            .probe(&phys, addr(3, 64), Ring::R4, AccessMode::Read)
            .is_none());
    }

    #[test]
    fn paged_probe_rechecks_the_ptw_word() {
        let mut phys = PhysMem::new(1 << 16);
        let pt = AbsAddr::new(0o300).unwrap();
        let mut ptw = Ptw::present(5).unwrap();
        ptw.used = true;
        phys.poke(pt, ptw.pack()).unwrap();
        let sdw = SdwBuilder::data(Ring::R4, Ring::R4)
            .addr(pt)
            .unpaged(false)
            .bound_words(2048)
            .build();
        let mut tlb = RingTlb::new();
        tlb.install(&phys, addr(3, 17), Ring::R4, &sdw, false);
        let hit = tlb
            .probe(&phys, addr(3, 17), Ring::R4, AccessMode::Read)
            .unwrap();
        assert_eq!(hit.abs.value(), 5 * 1024 + 17);
        assert_eq!(hit.ptw_reads, 1);
        // Writes need the modified bit already on.
        assert!(tlb
            .probe(&phys, addr(3, 17), Ring::R4, AccessMode::Write)
            .is_none());
        // Remap the page behind the lookaside's back: the raw-word
        // comparison must reject the stale translation.
        phys.poke(pt, Ptw::present(9).unwrap().pack()).unwrap();
        assert!(tlb
            .probe(&phys, addr(3, 17), Ring::R4, AccessMode::Read)
            .is_none());
    }

    #[test]
    fn transfer_probe_ignores_ptw_and_slow_fetch() {
        let mut phys = PhysMem::new(1 << 16);
        let pt = AbsAddr::new(0o300).unwrap();
        let mut ptw = Ptw::present(5).unwrap();
        ptw.used = true;
        phys.poke(pt, ptw.pack()).unwrap();
        let sdw = SdwBuilder::procedure(Ring::R0, Ring::R4, Ring::R4)
            .addr(pt)
            .unpaged(false)
            .bound_words(1024)
            .build();
        let mut tlb = RingTlb::new();
        tlb.install(&phys, addr(3, 0), Ring::R4, &sdw, true);
        // Slow-fetch blocks the Execute probe but not the transfer
        // verdict, and neither does clobbering the PTW.
        assert!(tlb
            .probe(&phys, addr(3, 0), Ring::R4, AccessMode::Execute)
            .is_none());
        phys.poke(pt, Ptw::MISSING.pack()).unwrap();
        assert!(tlb.probe_transfer(addr(3, 0), Ring::R4));
        assert!(!tlb.probe_transfer(addr(3, 1024), Ring::R4));
    }

    #[test]
    fn invalidate_segment_is_selective_and_flush_is_total() {
        let phys = PhysMem::new(1 << 16);
        let mut tlb = RingTlb::new();
        tlb.install(&phys, addr(3, 0), Ring::R4, &unpaged_sdw(), false);
        tlb.install(&phys, addr(5, 0), Ring::R4, &unpaged_sdw(), false);
        tlb.invalidate_segment(SegNo::new(3).unwrap());
        assert!(tlb
            .probe(&phys, addr(3, 0), Ring::R4, AccessMode::Read)
            .is_none());
        assert!(tlb
            .probe(&phys, addr(5, 0), Ring::R4, AccessMode::Read)
            .is_some());
        tlb.flush();
        assert!(tlb
            .probe(&phys, addr(5, 0), Ring::R4, AccessMode::Read)
            .is_none());
        // Reinstalling after a flush works (new epoch).
        tlb.install(&phys, addr(5, 0), Ring::R4, &unpaged_sdw(), false);
        assert!(tlb
            .probe(&phys, addr(5, 0), Ring::R4, AccessMode::Read)
            .is_some());
        assert_eq!(tlb.stats().flushes, 1);
        assert_eq!(tlb.stats().invalidations, 1);
        assert_eq!(tlb.stats().installs, 3);
    }

    #[test]
    fn probe_is_pure() {
        let phys = PhysMem::new(1 << 16);
        let mut tlb = RingTlb::new();
        tlb.install(&phys, addr(3, 0), Ring::R4, &unpaged_sdw(), false);
        let stats_before = tlb.stats();
        tlb.probe(&phys, addr(3, 0), Ring::R4, AccessMode::Read);
        tlb.probe(&phys, addr(3, 0), Ring::R4, AccessMode::Execute);
        tlb.probe_transfer(addr(3, 0), Ring::R4);
        assert_eq!(tlb.stats(), stats_before);
        assert_eq!(phys.ref_count(), 0);
    }

    #[test]
    fn absent_segment_installs_nothing() {
        let phys = PhysMem::new(1 << 16);
        let mut tlb = RingTlb::new();
        let sdw = SdwBuilder::data(Ring::R4, Ring::R4).present(false).build();
        tlb.install(&phys, addr(3, 0), Ring::R4, &sdw, false);
        assert_eq!(tlb.stats().installs, 0);
    }
}
