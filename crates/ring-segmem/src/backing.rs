//! Backing store for evicted pages.
//!
//! The paper assumes a drum/disk hierarchy behind the paging hardware;
//! this is its simulated stand-in: a deterministic, host-side map from
//! `(stored segment, page)` to the page's words. The kernel writes a
//! victim page here when the CLOCK hand evicts it and reads it back on
//! the subsequent *major* page fault. A page absent from the store has
//! never been evicted, so the fault is *minor* and is filled from the
//! segment's file image instead.
//!
//! Pages are keyed by the file system's segment identity, not by the
//! `(process, segment-number)` pair that faulted: several processes can
//! map the same stored segment through one shared page table, and the
//! evicted image must be found again no matter which of them touches
//! the page next.
//!
//! A `BTreeMap` keeps iteration (and therefore any diagnostic output)
//! deterministic. The store lives outside the simulated physical
//! memory on purpose: it is I/O-device state, not addressable store,
//! exactly like the drum in the original design.
//!
//! Page images are shared by reference count, so cloning the store (a
//! checkpoint does) copies no words.

use std::collections::BTreeMap;
use std::sync::Arc;

use ring_core::word::Word;

/// Identity of a swapped-out page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PageKey {
    /// Stored-segment identity (the file system's segment id), shared
    /// by every process that maps the segment.
    pub seg: u32,
    /// Page number within the segment.
    pub page: u32,
}

/// The simulated drum: evicted pages, keyed by stored segment.
#[derive(Clone, Debug, Default)]
pub struct BackingStore {
    pages: BTreeMap<PageKey, Arc<[Word]>>,
    writes: u64,
    reads: u64,
}

impl BackingStore {
    /// An empty backing store.
    pub fn new() -> BackingStore {
        BackingStore::default()
    }

    /// Writes (or overwrites) `key`'s page image.
    pub fn store(&mut self, key: PageKey, words: Arc<[Word]>) {
        self.writes += 1;
        self.pages.insert(key, words);
    }

    /// Takes `key`'s stored image for a page-in, if the page was
    /// evicted. The entry is *consumed*: the drum copy goes stale the
    /// moment the page is writable in core again, so a page lives in
    /// exactly one place — a frame or the drum, never both.
    pub fn fetch(&mut self, key: PageKey) -> Option<Arc<[Word]>> {
        let words = self.pages.remove(&key)?;
        self.reads += 1;
        Some(words)
    }

    /// Whether `key` has a stored image (without counting a read).
    pub fn contains(&self, key: PageKey) -> bool {
        self.pages.contains_key(&key)
    }

    /// The stored image for `key` without counting a read (diagnostic
    /// inspection; the kernel's fill path uses [`BackingStore::fetch`]).
    pub fn peek(&self, key: PageKey) -> Option<&[Word]> {
        self.pages.get(&key).map(|w| &w[..])
    }

    /// Drops every page of stored segment `seg` (segment deletion).
    pub fn release_seg(&mut self, seg: u32) {
        self.pages.retain(|k, _| k.seg != seg);
    }

    /// Number of pages currently stored.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when no page has been evicted (or all were released).
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Total page writes (evictions) since boot.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total page reads (major-fault fills) since boot.
    pub fn reads(&self) -> u64 {
        self.reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seg: u32, page: u32) -> PageKey {
        PageKey { seg, page }
    }

    #[test]
    fn store_then_fetch_round_trips_and_consumes() {
        let mut b = BackingStore::new();
        assert!(!b.contains(key(10, 2)));
        b.store(key(10, 2), Arc::from([Word::new(5); 4]));
        assert!(b.contains(key(10, 2)));
        assert_eq!(b.fetch(key(10, 2)).unwrap()[0], Word::new(5));
        // The page-in consumed the drum copy.
        assert!(!b.contains(key(10, 2)));
        assert!(b.is_empty());
        assert_eq!(b.fetch(key(10, 3)), None);
        assert_eq!((b.writes(), b.reads()), (1, 1));
    }

    #[test]
    fn release_seg_drops_only_that_segment() {
        let mut b = BackingStore::new();
        b.store(key(10, 0), Arc::from([]));
        b.store(key(11, 0), Arc::from([]));
        b.release_seg(10);
        assert!(!b.contains(key(10, 0)));
        assert!(b.contains(key(11, 0)));
        assert_eq!(b.len(), 1);
    }
}
