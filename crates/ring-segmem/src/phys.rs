//! Physical (absolute-addressed) memory.
//!
//! A flat array of 36-bit words addressed by 24-bit absolute address.
//! All descriptor segments, page tables, and segment bodies live here;
//! the processor reaches it only through address translation
//! ([`crate::translate`]).
//!
//! Memory comes in two backings. [`PhysMem::new`] builds the classic
//! flat array, filled lazily: it reserves its storage up front but
//! zero-fills the [`COW_PAGE_WORDS`] windows up to an address only when
//! that address is first written, and words never written read as
//! zero. [`PhysMem::cow`] builds a copy-on-write view over a shared
//! read-only base image ([`Arc`]`<Vec<Word>>`): reads fall through to
//! the base, and the first write to any [`COW_PAGE_WORDS`] aligned page
//! materializes a private copy of that page. A fleet of machines booted
//! from one frozen image therefore shares almost all of its storage —
//! each machine pays only for the pages it actually changes.
//!
//! Overlay pages are themselves shared by reference count, so cloning a
//! copy-on-write memory (a checkpoint) costs one count bump per window
//! and copies no words. Whichever side writes a shared page next copies
//! it then ([`Arc::make_mut`]); that copy does not count as a new dirty
//! page, because the page had already diverged from the base image.
//!
//! Bulk transfers ([`PhysMem::peek_block`], [`PhysMem::poke_block`])
//! behave exactly like loops of single-word peeks and pokes but copy a
//! page-sized slice at a time; the kernel's pager moves whole pages
//! with them.

use std::collections::BTreeSet;
use std::sync::Arc;

use ring_core::access::Fault;
use ring_core::addr::AbsAddr;
use ring_core::word::Word;

/// Granularity of the copy-on-write overlay, in words. Chosen to match
/// the hardware page size so a dirtied page of simulated core maps to
/// exactly one privately materialized host allocation.
pub const COW_PAGE_WORDS: usize = 1024;

/// One copy-on-write overlay page, shared by reference count between a
/// memory and its clones until one of them writes to it.
type Page = Arc<[Word; COW_PAGE_WORDS]>;

/// Storage behind a [`PhysMem`]: either a private flat array or a
/// copy-on-write overlay above a shared read-only base image.
#[derive(Clone)]
enum Backing {
    /// Every word privately owned (the classic layout). `words` is the
    /// written prefix, whole windows long (the last may be partial);
    /// words from there up to `size` read as zero until written.
    Flat {
        /// The filled prefix of memory.
        words: Vec<Word>,
        /// Configured size in words.
        size: usize,
    },
    /// Shared base image plus private dirty pages.
    Cow {
        /// The frozen boot image, shared by reference count across
        /// every machine cloned from it. Never written.
        base: Arc<Vec<Word>>,
        /// Configured size in words (may exceed `base.len()`; words
        /// past the base read as zero until written).
        size: usize,
        /// Private overlay, one optional page per [`COW_PAGE_WORDS`]
        /// window. `None` means the window still reads from `base`.
        pages: Vec<Option<Page>>,
        /// Number of materialized (dirtied) pages.
        dirty: u32,
    },
}

/// A private copy of window `w` of a copy-on-write base image (zero
/// past the end of the base).
fn copy_window(base: &[Word], w: usize) -> Page {
    let mut page = [Word::ZERO; COW_PAGE_WORDS];
    let src = base.get(w * COW_PAGE_WORDS..).unwrap_or(&[]);
    let n = src.len().min(COW_PAGE_WORDS);
    page[..n].copy_from_slice(&src[..n]);
    Arc::new(page)
}

/// Extends a flat memory's filled prefix with zeroed windows until it
/// covers address `hi - 1` (`hi` at most the memory size).
fn fill_to(words: &mut Vec<Word>, size: usize, hi: usize) {
    if words.len() < hi {
        let end = (hi.div_ceil(COW_PAGE_WORDS) * COW_PAGE_WORDS).min(size);
        words.resize(end, Word::ZERO);
    }
}

/// Physical memory: up to 2^24 36-bit words.
///
/// Reads and writes are bounds-checked against the configured size and
/// counted, so callers can convert physical traffic into simulated
/// cycles.
///
/// Each word carries a simulated parity bit: the chaos harness damages
/// a word with [`PhysMem::corrupt`], after which any *counted* read
/// raises [`Fault::ParityError`] — exactly how core parity surfaces on
/// real hardware. A write (counted or not) rewrites the parity and
/// clears the poison. Uncounted [`PhysMem::peek`]s stay poison-blind:
/// they model maintenance-panel access, and the fast path (which probes
/// with peeks) performs its own poison checks so that it bails to the
/// slow path and the fault is raised identically either way.
#[derive(Clone)]
pub struct PhysMem {
    backing: Backing,
    reads: u64,
    writes: u64,
    /// Absolute addresses whose parity is bad (sorted for canonical
    /// serialization).
    poisoned: BTreeSet<u32>,
    /// Poisoned words healed by an ordinary counted write before any
    /// read saw them (latent faults that expired harmlessly).
    repaired: u64,
    /// One past the highest address ever written (counted or poked);
    /// the chaos harness draws its targets below this mark so they
    /// land in storage that is actually in use.
    high_water: u32,
}

impl PhysMem {
    /// Maximum addressable size in words (24-bit absolute addresses).
    pub const MAX_WORDS: usize = 1 << 24;

    /// Creates a zeroed memory of `words` words. Storage is reserved
    /// now and zero-filled a window at a time on first write.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds [`PhysMem::MAX_WORDS`].
    pub fn new(words: usize) -> PhysMem {
        assert!(words <= Self::MAX_WORDS, "physical memory too large");
        PhysMem {
            backing: Backing::Flat {
                words: Vec::with_capacity(words),
                size: words,
            },
            reads: 0,
            writes: 0,
            poisoned: BTreeSet::new(),
            repaired: 0,
            high_water: 0,
        }
    }

    /// Creates a copy-on-write memory of `words` words above the shared
    /// read-only `base` image. Words beyond `base.len()` read as zero
    /// until written. No page storage is allocated up front; each
    /// [`COW_PAGE_WORDS`] window is copied privately on first write.
    ///
    /// The fresh view starts with zeroed traffic counters, no poison,
    /// and a zero high-water mark, exactly like [`PhysMem::new`] — a
    /// machine booted over the image replays its world-building pokes
    /// and rebuilds those marks deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `words` exceeds [`PhysMem::MAX_WORDS`] or the base
    /// image is larger than `words`.
    pub fn cow(base: Arc<Vec<Word>>, words: usize) -> PhysMem {
        assert!(words <= Self::MAX_WORDS, "physical memory too large");
        assert!(base.len() <= words, "base image larger than memory");
        let windows = words.div_ceil(COW_PAGE_WORDS);
        PhysMem {
            backing: Backing::Cow {
                base,
                size: words,
                pages: vec![None; windows],
                dirty: 0,
            },
            reads: 0,
            writes: 0,
            poisoned: BTreeSet::new(),
            repaired: 0,
            high_water: 0,
        }
    }

    /// Reads slot `i`, overlay first (no counting, no parity check).
    #[inline]
    fn get(&self, i: usize) -> Option<Word> {
        match &self.backing {
            Backing::Flat { words, size } => match words.get(i) {
                Some(word) => Some(*word),
                None => (i < *size).then_some(Word::ZERO),
            },
            Backing::Cow {
                base, size, pages, ..
            } => {
                if i >= *size {
                    return None;
                }
                match &pages[i / COW_PAGE_WORDS] {
                    Some(page) => Some(page[i % COW_PAGE_WORDS]),
                    None => Some(base.get(i).copied().unwrap_or(Word::ZERO)),
                }
            }
        }
    }

    /// Mutable access to slot `i`: fills a flat memory up to it, or
    /// makes its copy-on-write page private.
    #[inline]
    fn slot_mut(&mut self, i: usize) -> Option<&mut Word> {
        match &mut self.backing {
            Backing::Flat { words, size } => {
                if i >= *size {
                    return None;
                }
                fill_to(words, *size, i + 1);
                words.get_mut(i)
            }
            Backing::Cow {
                base,
                size,
                pages,
                dirty,
            } => {
                if i >= *size {
                    return None;
                }
                let page = pages[i / COW_PAGE_WORDS].get_or_insert_with(|| {
                    *dirty += 1;
                    copy_window(base, i / COW_PAGE_WORDS)
                });
                Some(&mut Arc::make_mut(page)[i % COW_PAGE_WORDS])
            }
        }
    }

    /// Size in words.
    pub fn size(&self) -> usize {
        match &self.backing {
            Backing::Flat { size, .. } | Backing::Cow { size, .. } => *size,
        }
    }

    /// Number of copy-on-write pages that diverged from the base image
    /// (a clone counts the ones it inherited). Zero for flat memory.
    pub fn dirty_pages(&self) -> u32 {
        match &self.backing {
            Backing::Flat { .. } => 0,
            Backing::Cow { dirty, .. } => *dirty,
        }
    }

    /// True when this memory is a copy-on-write view over a shared
    /// base image.
    pub fn is_cow(&self) -> bool {
        matches!(self.backing, Backing::Cow { .. })
    }

    /// Number of [`COW_PAGE_WORDS`] windows covering the memory (the
    /// last one may be partial).
    fn windows(&self) -> usize {
        self.size().div_ceil(COW_PAGE_WORDS)
    }

    /// Contents of window `w`, clipped to the memory size: the stored
    /// words, then how many further words read as zero because they
    /// lie past the filled prefix of a flat memory or past the end of a
    /// copy-on-write base image.
    fn window(&self, w: usize) -> (&[Word], usize) {
        let lo = w * COW_PAGE_WORDS;
        let hi = (lo + COW_PAGE_WORDS).min(self.size());
        let stored = match &self.backing {
            Backing::Flat { words, .. } => words,
            Backing::Cow { base, pages, .. } => match &pages[w] {
                Some(page) => return (&page[..hi - lo], 0),
                None => base.as_slice(),
            },
        };
        let stored = &stored[lo.min(stored.len())..hi.min(stored.len())];
        (stored, hi - lo - stored.len())
    }

    /// Freezes the contents into a shared read-only image, suitable for
    /// [`PhysMem::cow`] with the same size, and turns this memory into a
    /// clean copy-on-write view over that image (counters, poison and
    /// high-water mark kept; no dirty pages). A flat memory hands over
    /// its filled prefix without a copy — the image may be shorter than
    /// the memory, and the rest reads as zero; a copy-on-write view is
    /// flattened.
    pub fn freeze_base(&mut self) -> Arc<Vec<Word>> {
        let size = self.size();
        let image = match &mut self.backing {
            Backing::Flat { words, .. } => std::mem::take(words),
            Backing::Cow { .. } => {
                let mut image = Vec::with_capacity(size);
                for w in 0..self.windows() {
                    let (stored, zeros) = self.window(w);
                    image.extend_from_slice(stored);
                    image.resize(image.len() + zeros, Word::ZERO);
                }
                image
            }
        };
        let image = Arc::new(image);
        self.backing = Backing::Cow {
            base: Arc::clone(&image),
            size,
            pages: vec![None; size.div_ceil(COW_PAGE_WORDS)],
            dirty: 0,
        };
        image
    }

    /// Reads the word at `addr`. A counted read is parity-checked: a
    /// damaged word raises [`Fault::ParityError`].
    pub fn read(&mut self, addr: AbsAddr) -> Result<Word, Fault> {
        self.reads += 1;
        let word = self
            .get(addr.value() as usize)
            .ok_or(Fault::PhysicalBounds { abs: addr.value() })?;
        if !self.poisoned.is_empty() && self.poisoned.contains(&addr.value()) {
            return Err(Fault::ParityError { abs: addr.value() });
        }
        Ok(word)
    }

    /// Writes the word at `addr`, rewriting its parity (a damaged word
    /// becomes clean again).
    #[inline]
    pub fn write(&mut self, addr: AbsAddr, value: Word) -> Result<(), Fault> {
        self.writes += 1;
        match self.slot_mut(addr.value() as usize) {
            Some(slot) => {
                *slot = value;
                self.high_water = self.high_water.max(addr.value() + 1);
                if !self.poisoned.is_empty() && self.poisoned.remove(&addr.value()) {
                    self.repaired += 1;
                }
                Ok(())
            }
            None => Err(Fault::PhysicalBounds { abs: addr.value() }),
        }
    }

    /// Reads without disturbing the traffic counters (for debuggers,
    /// trace printers and tests that must not perturb cycle counts).
    #[inline]
    pub fn peek(&self, addr: AbsAddr) -> Result<Word, Fault> {
        self.get(addr.value() as usize)
            .ok_or(Fault::PhysicalBounds { abs: addr.value() })
    }

    /// Writes without disturbing the traffic counters (world-building
    /// and supervisor repair). Clears any poison on the word without
    /// counting it as a latent repair — a deliberate poke is either
    /// world-building or recovery, not a program racing a fault.
    ///
    /// A poke whose value already matches the stored word (and whose
    /// parity is clean) is a no-op apart from the high-water mark, so
    /// it never dirties a copy-on-write page. Replaying the boot-time
    /// world-building sequence over a frozen image of its own result
    /// therefore leaves the overlay empty.
    pub fn poke(&mut self, addr: AbsAddr, value: Word) -> Result<(), Fault> {
        let i = addr.value() as usize;
        match self.get(i) {
            Some(current) => {
                self.high_water = self.high_water.max(addr.value() + 1);
                let poisoned = !self.poisoned.is_empty() && self.poisoned.contains(&addr.value());
                if current == value && !poisoned {
                    return Ok(());
                }
                if poisoned {
                    self.poisoned.remove(&addr.value());
                }
                *self.slot_mut(i).expect("slot bounds-checked by get") = value;
                Ok(())
            }
            None => Err(Fault::PhysicalBounds { abs: addr.value() }),
        }
    }

    /// Reads `len` consecutive words from `start` without disturbing
    /// the traffic counters: exactly a loop of [`PhysMem::peek`], done a
    /// page at a time. Fails with the first out-of-range address.
    pub fn peek_block(&self, start: AbsAddr, len: usize) -> Result<Vec<Word>, Fault> {
        let lo = start.value() as usize;
        let end = lo + len;
        if len > 0 && end > self.size() {
            return Err(Fault::PhysicalBounds {
                abs: lo.max(self.size()) as u32,
            });
        }
        let mut out = Vec::with_capacity(len);
        let mut i = lo;
        while i < end {
            let (w, off) = (i / COW_PAGE_WORDS, i % COW_PAGE_WORDS);
            let n = (COW_PAGE_WORDS - off).min(end - i);
            let (stored, _) = self.window(w);
            let from = off.min(stored.len());
            let have = (stored.len() - from).min(n);
            out.extend_from_slice(&stored[from..from + have]);
            out.resize(out.len() + n - have, Word::ZERO);
            i += n;
        }
        Ok(out)
    }

    /// Writes `words` to consecutive addresses from `start` without
    /// disturbing the traffic counters: exactly a loop of
    /// [`PhysMem::poke`], done a page at a time. A page is dirtied only
    /// when one of its words changes or was poisoned; poison is cleared
    /// without counting a repair; the high-water mark covers every word
    /// written. Words past the end of memory are not written, and the
    /// first of them is reported as the fault.
    pub fn poke_block(&mut self, start: AbsAddr, words: &[Word]) -> Result<(), Fault> {
        let lo = start.value() as usize;
        let fit = words.len().min(self.size().saturating_sub(lo));
        let (mut i, mut rest) = (lo, &words[..fit]);
        while !rest.is_empty() {
            let n = (COW_PAGE_WORDS - i % COW_PAGE_WORDS).min(rest.len());
            let (chunk, tail) = rest.split_at(n);
            self.poke_window(i, chunk);
            i += n;
            rest = tail;
        }
        if fit < words.len() {
            return Err(Fault::PhysicalBounds {
                abs: (lo + fit) as u32,
            });
        }
        Ok(())
    }

    /// [`PhysMem::poke_block`] for an in-range run that stays inside one
    /// window.
    fn poke_window(&mut self, lo: usize, words: &[Word]) {
        let hi = lo + words.len();
        self.high_water = self.high_water.max(hi as u32);
        let poisoned = self.poisoned.len();
        self.poisoned
            .retain(|abs| !(lo as u32..hi as u32).contains(abs));
        let cleared = self.poisoned.len() != poisoned;
        match &mut self.backing {
            Backing::Flat {
                words: stored,
                size,
            } => {
                fill_to(stored, *size, hi);
                stored[lo..hi].copy_from_slice(words);
            }
            Backing::Cow {
                base, pages, dirty, ..
            } => {
                let (w, off) = (lo / COW_PAGE_WORDS, lo % COW_PAGE_WORDS);
                let page = match &mut pages[w] {
                    Some(page) => page,
                    slot @ None => {
                        let shown = &base[lo.min(base.len())..hi.min(base.len())];
                        let (over_base, past_base) = words.split_at(shown.len());
                        if !cleared
                            && over_base == shown
                            && past_base.iter().all(|v| *v == Word::ZERO)
                        {
                            return;
                        }
                        *dirty += 1;
                        slot.insert(copy_window(base, w))
                    }
                };
                Arc::make_mut(page)[off..off + words.len()].copy_from_slice(words);
            }
        }
    }

    /// Adds `n` to the read counter without touching memory. The
    /// fast-path engine probes with uncounted [`PhysMem::peek`]s so an
    /// abandoned attempt leaves no trace, then charges the reads the
    /// slow path would have counted in one step when it commits.
    #[inline]
    pub fn charge_reads(&mut self, n: u64) {
        self.reads += n;
    }

    /// Total counted reads since construction.
    pub fn read_count(&self) -> u64 {
        self.reads
    }

    /// The nonzero words with their absolute addresses, for sparse
    /// machine-image capture (uncounted).
    pub fn nonzero_words(&self) -> Vec<(u32, Word)> {
        let mut out = Vec::new();
        for w in 0..self.windows() {
            let lo = w * COW_PAGE_WORDS;
            let (stored, _) = self.window(w);
            out.extend(
                (lo as u32..)
                    .zip(stored.iter().copied())
                    .filter(|(_, word)| word.raw() != 0),
            );
        }
        out
    }

    /// Zeroes every word without touching the traffic counters (image
    /// restore repopulates from a sparse capture afterwards). A
    /// copy-on-write view detaches from its base image and becomes a
    /// private flat array — restore rebuilds arbitrary contents, so
    /// sharing is over.
    pub fn zero_all(&mut self) {
        match &mut self.backing {
            Backing::Flat { words, .. } => words.clear(),
            Backing::Cow { size, .. } => {
                self.backing = Backing::Flat {
                    words: Vec::with_capacity(*size),
                    size: *size,
                };
            }
        }
    }

    /// Overwrites the traffic counters (image restore; the counters
    /// feed cycle accounting, so replay must resume them exactly).
    pub fn restore_counters(&mut self, reads: u64, writes: u64) {
        self.reads = reads;
        self.writes = writes;
    }

    /// Total counted writes since construction.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Damages the word at `abs`: XORs `mask` into its contents and
    /// marks its parity bad, so the next counted read faults. Returns
    /// `false` (and does nothing) when `abs` is out of range or the
    /// mask is zero.
    pub fn corrupt(&mut self, abs: u32, mask: u64) -> bool {
        if mask == 0 {
            return false;
        }
        match self.slot_mut(abs as usize) {
            Some(slot) => {
                *slot = Word::new(slot.raw() ^ mask);
                self.poisoned.insert(abs);
                true
            }
            None => false,
        }
    }

    /// True if the word at `abs` currently has bad parity. The fast
    /// path consults this on every probe peek so a poisoned word bails
    /// to the slow path, which raises the fault.
    #[inline]
    pub fn is_poisoned(&self, abs: AbsAddr) -> bool {
        !self.poisoned.is_empty() && self.poisoned.contains(&abs.value())
    }

    /// Clears the poison on `abs` without touching its contents
    /// (supervisor recovery that abandons the word, e.g. when the
    /// owning process is killed). Returns whether it was poisoned.
    pub fn clear_poison(&mut self, abs: u32) -> bool {
        self.poisoned.remove(&abs)
    }

    /// Number of currently poisoned words (latent parity faults).
    pub fn poison_count(&self) -> u64 {
        self.poisoned.len() as u64
    }

    /// Latent parity words healed by ordinary writes.
    pub fn repaired_count(&self) -> u64 {
        self.repaired
    }

    /// One past the highest address ever written.
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// The poisoned-address set, sorted (for machine-image capture).
    pub fn poison_export(&self) -> Vec<u32> {
        self.poisoned.iter().copied().collect()
    }

    /// Restores chaos-visible state from a machine image: the poison
    /// set, the repair counter, and the high-water mark (which image
    /// repopulation alone cannot reproduce when the highest word ever
    /// written has since become zero).
    pub fn restore_chaos_state(&mut self, poisoned: &[u32], repaired: u64, high_water: u32) {
        self.poisoned = poisoned.iter().copied().collect();
        self.repaired = repaired;
        self.high_water = high_water;
    }

    /// Total counted references (reads + writes).
    #[inline]
    pub fn ref_count(&self) -> u64 {
        self.reads + self.writes
    }
}

impl core::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PhysMem")
            .field("size", &self.size())
            .field("cow", &self.is_cow())
            .field("dirty_pages", &self.dirty_pages())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = PhysMem::new(64);
        let a = AbsAddr::new(10).unwrap();
        m.write(a, Word::new(0o123)).unwrap();
        assert_eq!(m.read(a).unwrap(), Word::new(0o123));
    }

    #[test]
    fn out_of_range_reference_faults() {
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(16).unwrap();
        assert!(matches!(m.read(a), Err(Fault::PhysicalBounds { abs: 16 })));
        assert!(matches!(
            m.write(a, Word::ZERO),
            Err(Fault::PhysicalBounds { .. })
        ));
    }

    #[test]
    fn traffic_counters() {
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(0).unwrap();
        m.read(a).unwrap();
        m.read(a).unwrap();
        m.write(a, Word::ZERO).unwrap();
        assert_eq!(m.read_count(), 2);
        assert_eq!(m.write_count(), 1);
        assert_eq!(m.ref_count(), 3);
    }

    #[test]
    fn peek_poke_do_not_count() {
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(1).unwrap();
        m.poke(a, Word::new(7)).unwrap();
        assert_eq!(m.peek(a).unwrap(), Word::new(7));
        assert_eq!(m.ref_count(), 0);
    }

    #[test]
    fn memory_starts_zeroed() {
        let m = PhysMem::new(8);
        for i in 0..8 {
            assert_eq!(m.peek(AbsAddr::new(i).unwrap()).unwrap(), Word::ZERO);
        }
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_memory_rejected() {
        let _ = PhysMem::new(PhysMem::MAX_WORDS + 1);
    }

    #[test]
    fn corrupt_word_faults_on_counted_read_only() {
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(3).unwrap();
        m.poke(a, Word::new(0o70)).unwrap();
        assert!(m.corrupt(3, 0o7));
        assert!(m.is_poisoned(a));
        // The peek sees the scrambled contents without a fault.
        assert_eq!(m.peek(a).unwrap(), Word::new(0o77));
        assert!(matches!(m.read(a), Err(Fault::ParityError { abs: 3 })));
        assert_eq!(m.read_count(), 1, "the faulting read still counted");
    }

    #[test]
    fn write_repairs_poison_and_counts_it() {
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(5).unwrap();
        assert!(m.corrupt(5, 1));
        m.write(a, Word::new(9)).unwrap();
        assert!(!m.is_poisoned(a));
        assert_eq!(m.repaired_count(), 1);
        assert_eq!(m.read(a).unwrap(), Word::new(9));
    }

    #[test]
    fn poke_and_clear_poison_repair_silently() {
        let mut m = PhysMem::new(16);
        assert!(m.corrupt(1, 1));
        m.poke(AbsAddr::new(1).unwrap(), Word::ZERO).unwrap();
        assert_eq!(m.poison_count(), 0);
        assert_eq!(m.repaired_count(), 0, "poke is repair, not a race");
        assert!(m.corrupt(2, 1));
        assert!(m.clear_poison(2));
        assert!(!m.clear_poison(2));
        assert_eq!(m.repaired_count(), 0);
    }

    #[test]
    fn poke_repairs_poison_even_when_value_matches() {
        // A poke that stores the word's existing value must still clear
        // poison — the equality short-circuit only applies to clean
        // words.
        let mut m = PhysMem::new(16);
        let a = AbsAddr::new(4).unwrap();
        m.poke(a, Word::new(0o55)).unwrap();
        // Zero mask would be rejected; poison via a mask that cancels:
        // corrupt twice with the same mask restores contents but the
        // second corrupt re-poisons, so poke the original value back.
        assert!(m.corrupt(4, 0o11));
        m.poke(a, Word::new(0o44)).unwrap();
        assert!(!m.is_poisoned(a));
        assert_eq!(m.peek(a).unwrap(), Word::new(0o44));
    }

    #[test]
    fn corrupt_rejects_out_of_range_and_zero_mask() {
        let mut m = PhysMem::new(4);
        assert!(!m.corrupt(4, 1));
        assert!(!m.corrupt(0, 0));
        assert_eq!(m.poison_count(), 0);
    }

    #[test]
    fn chaos_state_round_trips() {
        let mut m = PhysMem::new(32);
        m.poke(AbsAddr::new(20).unwrap(), Word::new(1)).unwrap();
        m.corrupt(7, 1);
        m.corrupt(9, 2);
        m.write(AbsAddr::new(9).unwrap(), Word::ZERO).unwrap();
        let poison = m.poison_export();
        assert_eq!(poison, vec![7]);
        let mut fresh = PhysMem::new(32);
        fresh.restore_chaos_state(&poison, m.repaired_count(), m.high_water());
        assert!(fresh.is_poisoned(AbsAddr::new(7).unwrap()));
        assert_eq!(fresh.repaired_count(), 1);
        assert_eq!(fresh.high_water(), 21);
    }

    #[test]
    fn high_water_tracks_writes_and_pokes() {
        let mut m = PhysMem::new(64);
        assert_eq!(m.high_water(), 0);
        m.poke(AbsAddr::new(10).unwrap(), Word::new(1)).unwrap();
        m.write(AbsAddr::new(40).unwrap(), Word::new(1)).unwrap();
        m.poke(AbsAddr::new(5).unwrap(), Word::new(1)).unwrap();
        assert_eq!(m.high_water(), 41);
    }

    #[test]
    fn high_water_counts_equal_value_pokes() {
        // The equality short-circuit must not hide the fact that the
        // address was deliberately written.
        let mut m = PhysMem::new(64);
        m.poke(AbsAddr::new(30).unwrap(), Word::ZERO).unwrap();
        assert_eq!(m.high_water(), 31);
    }

    fn base_image(words: &[(usize, u64)], size: usize) -> Arc<Vec<Word>> {
        let mut v = vec![Word::ZERO; size];
        for &(i, raw) in words {
            v[i] = Word::new(raw);
        }
        Arc::new(v)
    }

    #[test]
    fn cow_reads_fall_through_to_base() {
        let base = base_image(&[(3, 0o7), (2050, 0o42)], 4096);
        let mut m = PhysMem::cow(base, 4096);
        assert_eq!(m.peek(AbsAddr::new(3).unwrap()).unwrap(), Word::new(0o7));
        assert_eq!(
            m.read(AbsAddr::new(2050).unwrap()).unwrap(),
            Word::new(0o42)
        );
        assert_eq!(m.dirty_pages(), 0, "reads never materialize pages");
        assert!(m.is_cow());
    }

    #[test]
    fn cow_write_dirties_exactly_one_page() {
        let base = base_image(&[(0, 1), (1500, 2)], 4096);
        let mut m = PhysMem::cow(Arc::clone(&base), 4096);
        m.write(AbsAddr::new(1024).unwrap(), Word::new(0o77))
            .unwrap();
        assert_eq!(m.dirty_pages(), 1);
        // The rest of the dirtied page still shows base contents.
        assert_eq!(m.peek(AbsAddr::new(1500).unwrap()).unwrap(), Word::new(2));
        // Other machines sharing the base are unaffected.
        assert_eq!(base[1024], Word::ZERO);
        // A second write to the same page allocates nothing new.
        m.write(AbsAddr::new(1025).unwrap(), Word::new(1)).unwrap();
        assert_eq!(m.dirty_pages(), 1);
    }

    #[test]
    fn cow_equal_poke_leaves_overlay_clean() {
        let base = base_image(&[(10, 0o123), (11, 0o456)], 2048);
        let mut m = PhysMem::cow(base, 2048);
        // Replaying the world-building value dirties nothing...
        m.poke(AbsAddr::new(10).unwrap(), Word::new(0o123)).unwrap();
        assert_eq!(m.dirty_pages(), 0);
        assert_eq!(m.high_water(), 11, "the poke still counts as a write mark");
        // ...while a differing value copies the page.
        m.poke(AbsAddr::new(11).unwrap(), Word::new(0o457)).unwrap();
        assert_eq!(m.dirty_pages(), 1);
        assert_eq!(m.peek(AbsAddr::new(11).unwrap()).unwrap(), Word::new(0o457));
        assert_eq!(m.peek(AbsAddr::new(10).unwrap()).unwrap(), Word::new(0o123));
    }

    #[test]
    fn cow_extends_past_base_with_zeros() {
        let base = base_image(&[(5, 9)], 1024);
        let mut m = PhysMem::cow(base, 4096);
        assert_eq!(m.size(), 4096);
        assert_eq!(m.peek(AbsAddr::new(3000).unwrap()).unwrap(), Word::ZERO);
        m.write(AbsAddr::new(3000).unwrap(), Word::new(4)).unwrap();
        assert_eq!(m.read(AbsAddr::new(3000).unwrap()).unwrap(), Word::new(4));
        assert!(m.read(AbsAddr::new(4096).unwrap()).is_err());
    }

    #[test]
    fn freeze_base_round_trips_through_cow() {
        let mut flat = PhysMem::new(3000);
        flat.poke(AbsAddr::new(7).unwrap(), Word::new(0o70))
            .unwrap();
        flat.poke(AbsAddr::new(2999).unwrap(), Word::new(0o17))
            .unwrap();
        let image = flat.clone().freeze_base();
        assert_eq!(image.len(), 3000, "the filled prefix, window by window");
        let m = PhysMem::cow(image, 3000);
        assert_eq!(m.peek(AbsAddr::new(7).unwrap()).unwrap(), Word::new(0o70));
        assert_eq!(
            m.peek(AbsAddr::new(2999).unwrap()).unwrap(),
            Word::new(0o17)
        );
        assert_eq!(m.nonzero_words(), flat.nonzero_words());
    }

    #[test]
    fn freeze_base_captures_overlay_edits() {
        let base = base_image(&[(1, 5), (1023, 7)], 1024);
        let mut m = PhysMem::cow(base, 3000);
        m.poke(AbsAddr::new(1040).unwrap(), Word::new(6)).unwrap();
        let refrozen = m.freeze_base();
        assert_eq!((m.dirty_pages(), m.high_water()), (0, 1041));
        assert_eq!(m.peek(AbsAddr::new(1040).unwrap()).unwrap(), Word::new(6));
        assert_eq!(refrozen.len(), 3000, "words past the base freeze as zero");
        assert_eq!(refrozen[1], Word::new(5));
        assert_eq!(refrozen[1023], Word::new(7));
        assert_eq!(refrozen[1040], Word::new(6));
        assert!(refrozen[1041..].iter().all(|w| *w == Word::ZERO));
    }

    #[test]
    fn cow_zero_all_detaches_from_base() {
        let base = base_image(&[(0, 1)], 1024);
        let mut m = PhysMem::cow(Arc::clone(&base), 1024);
        m.zero_all();
        assert!(!m.is_cow());
        assert_eq!(m.peek(AbsAddr::new(0).unwrap()).unwrap(), Word::ZERO);
        assert_eq!(base[0], Word::new(1), "the shared image survives");
    }

    #[test]
    fn cow_chaos_corrupt_and_repair() {
        let base = base_image(&[(9, 0o70)], 1024);
        let mut m = PhysMem::cow(base, 1024);
        assert!(m.corrupt(9, 0o7));
        assert_eq!(m.dirty_pages(), 1, "corruption copies the page privately");
        let a = AbsAddr::new(9).unwrap();
        assert!(matches!(m.read(a), Err(Fault::ParityError { abs: 9 })));
        m.write(a, Word::new(0o70)).unwrap();
        assert_eq!(m.repaired_count(), 1);
        assert_eq!(m.read(a).unwrap(), Word::new(0o70));
    }
}
