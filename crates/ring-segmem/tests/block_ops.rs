//! Page-granular block operations are exactly loops of single-word
//! ones: `poke_block` ≡ a `poke` per word and `peek_block` ≡ a `peek`
//! per word, on flat and copy-on-write memory alike — contents, dirty
//! pages, poison, repairs, high-water mark and traffic counters.
//!
//! Two storage models are pinned as well. Clones of a copy-on-write
//! memory share their pages, yet writes on one side never show through
//! on the other, and the copy a write makes of a shared page is not a
//! new dirty page. A flat memory filled lazily behaves exactly like an
//! eagerly zeroed array of its size.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use ring_core::access::Fault;
use ring_core::addr::AbsAddr;
use ring_core::word::Word;
use ring_segmem::phys::{PhysMem, COW_PAGE_WORDS};

/// Memory size: five full windows plus a partial one.
const SIZE: usize = 5 * COW_PAGE_WORDS + 300;
/// Base image length: ends mid-window, so some in-range words of a
/// copy-on-write view read as zero past the base.
const BASE: usize = 3 * COW_PAGE_WORDS + 17;

/// Builds the memory under test: flat or copy-on-write over a base
/// holding `base_words`, then dirtied by `pokes`, damaged at `poison`
/// (mask 1, so a damaged zero word becomes 1), and marked bad at
/// `restored` as an image restore would (contents and pages untouched).
fn memory(
    cow: bool,
    base_words: &[(usize, u64)],
    pokes: &[(usize, u64)],
    poison: &[usize],
    restored: &[usize],
) -> PhysMem {
    let mut m = if cow {
        let mut base = vec![Word::ZERO; BASE];
        for &(i, raw) in base_words {
            base[i % BASE] = Word::new(raw);
        }
        PhysMem::cow(Arc::new(base), SIZE)
    } else {
        let mut m = PhysMem::new(SIZE);
        for &(i, raw) in base_words {
            m.poke(addr(i % BASE), Word::new(raw)).unwrap();
        }
        m
    };
    for &(i, raw) in pokes {
        m.poke(addr(i % SIZE), Word::new(raw)).unwrap();
    }
    for &i in poison {
        m.corrupt((i % SIZE) as u32, 1);
    }
    let mut bad = m.poison_export();
    bad.extend(restored.iter().map(|&i| (i % SIZE) as u32));
    bad.sort_unstable();
    let (repaired, high_water) = (m.repaired_count(), m.high_water());
    m.restore_chaos_state(&bad, repaired, high_water);
    m
}

fn addr(i: usize) -> AbsAddr {
    AbsAddr::new(i as u32).unwrap()
}

/// Everything a block op may change, for comparison.
#[derive(Debug, PartialEq)]
struct Observed {
    contents: Vec<(u32, Word)>,
    dirty_pages: u32,
    poison: Vec<u32>,
    repaired: u64,
    high_water: u32,
    reads: u64,
    writes: u64,
}

fn observe(m: &PhysMem) -> Observed {
    Observed {
        contents: m.nonzero_words(),
        dirty_pages: m.dirty_pages(),
        poison: m.poison_export(),
        repaired: m.repaired_count(),
        high_water: m.high_water(),
        reads: m.read_count(),
        writes: m.write_count(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn block_ops_match_word_loops(
        cow in any::<bool>(),
        base_words in proptest::collection::vec((0usize..BASE, 0u64..3), 0..40),
        pokes in proptest::collection::vec((0usize..SIZE, 0u64..3), 0..6),
        poison in proptest::collection::vec(0usize..SIZE, 0..6),
        restored in proptest::collection::vec(0usize..SIZE, 0..4),
        start in 0usize..SIZE + 64,
        len in 0usize..3 * COW_PAGE_WORDS,
        mode in 0u8..3,
        values in proptest::collection::vec(0u64..3, 1..64),
        changed in 0usize..3 * COW_PAGE_WORDS,
    ) {
        let mem = memory(cow, &base_words, &pokes, &poison, &restored);
        prop_assert_eq!(mem.is_cow(), cow);

        // Block peek ≡ a peek per word, including the failing address.
        let looped: Result<Vec<Word>, _> =
            (start..start + len).map(|i| mem.peek(addr(i))).collect();
        prop_assert_eq!(mem.peek_block(addr(start), len), looped);

        // The words to write: random small values (many equal to what
        // is stored), the current contents verbatim (every write
        // equal), or the current contents with one word changed.
        let current: Vec<Word> = (start..start + len)
            .map(|i| mem.peek(addr(i)).unwrap_or(Word::ZERO))
            .collect();
        let words: Vec<Word> = match mode {
            0 => (0..len).map(|k| Word::new(values[k % values.len()])).collect(),
            1 => current,
            _ => {
                let mut w = current;
                if let Some(x) = w.get_mut(changed % len.max(1)) {
                    *x = Word::new(x.raw() ^ 4);
                }
                w
            }
        };

        let mut block = mem.clone();
        let got = block.poke_block(addr(start), &words);
        let mut looped = mem.clone();
        let mut want = Ok(());
        for (i, w) in words.iter().enumerate() {
            if let Err(e) = looped.poke(addr(start + i), *w) {
                want = Err(e);
                break;
            }
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(observe(&block), observe(&looped));
    }
}

/// One random memory operation: `(kind, address, value, length)`.
type Op = (u8, usize, u64, usize);

/// Addresses where the storage models change: window, base-image and
/// memory boundaries.
const EDGES: [usize; 9] = [
    0,
    COW_PAGE_WORDS - 1,
    COW_PAGE_WORDS,
    BASE - 1,
    BASE,
    SIZE - COW_PAGE_WORDS,
    SIZE - 1,
    SIZE,
    SIZE + 1,
];

/// Random operations, a quarter of them aimed at an edge address.
fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (
        0u8..7,
        0u8..4,
        0usize..SIZE + 64,
        0u64..4,
        0usize..COW_PAGE_WORDS + 40,
    )
        .prop_map(|(kind, aim, at, value, len)| {
            let at = if aim == 0 {
                EDGES[at % EDGES.len()]
            } else {
                at
            };
            (kind, at, value, len)
        });
    proptest::collection::vec(op, 0..48)
}

/// What one operation returned, for comparison.
#[derive(Debug, PartialEq)]
enum Returned {
    Word(Result<Word, Fault>),
    Unit(Result<(), Fault>),
    Block(Result<Vec<Word>, Fault>),
    Corrupted(bool),
}

/// Applies `op` to `m`.
fn apply(m: &mut PhysMem, (kind, at, value, len): Op) -> Returned {
    let a = addr(at);
    let v = Word::new(value);
    match kind {
        0 => Returned::Word(m.read(a)),
        1 => Returned::Unit(m.write(a, v)),
        2 => Returned::Word(m.peek(a)),
        3 => Returned::Unit(m.poke(a, v)),
        4 => Returned::Block(m.peek_block(a, len)),
        5 => {
            let words: Vec<Word> = (0..len as u64)
                .map(|k| Word::new((value + k) % 4))
                .collect();
            Returned::Unit(m.poke_block(a, &words))
        }
        _ => Returned::Corrupted(m.corrupt(at as u32, value)),
    }
}

/// The reference for a flat memory: an eagerly zeroed array with the
/// documented parity, counter and high-water rules.
struct Model {
    words: Vec<Word>,
    poisoned: BTreeSet<u32>,
    reads: u64,
    writes: u64,
    repaired: u64,
    high_water: u32,
}

impl Model {
    fn new() -> Model {
        Model {
            words: vec![Word::ZERO; SIZE],
            poisoned: BTreeSet::new(),
            reads: 0,
            writes: 0,
            repaired: 0,
            high_water: 0,
        }
    }

    fn peek(&self, at: usize) -> Result<Word, Fault> {
        self.words
            .get(at)
            .copied()
            .ok_or(Fault::PhysicalBounds { abs: at as u32 })
    }

    fn poke(&mut self, at: usize, v: Word) -> Result<(), Fault> {
        self.peek(at)?;
        self.words[at] = v;
        self.poisoned.remove(&(at as u32));
        self.high_water = self.high_water.max(at as u32 + 1);
        Ok(())
    }

    fn apply(&mut self, (kind, at, value, len): Op) -> Returned {
        let v = Word::new(value);
        match kind {
            0 => {
                self.reads += 1;
                let word = self.peek(at);
                if word.is_ok() && self.poisoned.contains(&(at as u32)) {
                    return Returned::Word(Err(Fault::ParityError { abs: at as u32 }));
                }
                Returned::Word(word)
            }
            1 => {
                self.writes += 1;
                let poisoned = self.poisoned.contains(&(at as u32));
                let done = self.poke(at, v);
                if done.is_ok() && poisoned {
                    self.repaired += 1;
                }
                Returned::Unit(done)
            }
            2 => Returned::Word(self.peek(at)),
            3 => Returned::Unit(self.poke(at, v)),
            4 => Returned::Block((at..at + len).map(|i| self.peek(i)).collect()),
            5 => Returned::Unit(
                (0..len).try_for_each(|k| self.poke(at + k, Word::new((value + k as u64) % 4))),
            ),
            _ => {
                let hit = value != 0 && at < SIZE;
                if hit {
                    self.words[at] = Word::new(self.words[at].raw() ^ value);
                    self.poisoned.insert(at as u32);
                }
                Returned::Corrupted(hit)
            }
        }
    }

    fn observed(&self) -> Observed {
        Observed {
            contents: (0u32..)
                .zip(self.words.iter().copied())
                .filter(|(_, w)| w.raw() != 0)
                .collect(),
            dirty_pages: 0,
            poison: self.poisoned.iter().copied().collect(),
            repaired: self.repaired,
            high_water: self.high_water,
            reads: self.reads,
            writes: self.writes,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cow_clones_share_pages_without_seeing_each_others_writes(
        base_words in proptest::collection::vec((0usize..BASE, 0u64..3), 0..40),
        pokes in proptest::collection::vec((0usize..SIZE, 0u64..3), 0..12),
        poison in proptest::collection::vec(0usize..SIZE, 0..4),
        ops in ops(),
    ) {
        let original = memory(true, &base_words, &pokes, &poison, &[]);
        let before = observe(&original);
        let mut shared = original.clone();
        prop_assert_eq!(observe(&shared), observe(&original));
        // The same memory rebuilt from scratch owns all of its pages.
        let mut private = memory(true, &base_words, &pokes, &poison, &[]);
        for &op in &ops {
            let got = apply(&mut shared, op);
            prop_assert_eq!(got, apply(&mut private, op));
        }
        // Writes through the clone never show through the original...
        prop_assert_eq!(observe(&original), before);
        // ...and copying a shared page is not a new divergence from the
        // base: the clone counts exactly what an unshared memory counts.
        prop_assert_eq!(observe(&shared), observe(&private));
        // The original is as usable as ever, and its writes stay its own.
        let mut after = original.clone();
        for &op in &ops {
            apply(&mut after, op);
        }
        prop_assert_eq!(observe(&after), observe(&private));
    }

    #[test]
    fn lazily_filled_flat_memory_matches_an_eager_array(ops in ops()) {
        let mut mem = PhysMem::new(SIZE);
        let mut model = Model::new();
        for &op in &ops {
            let got = apply(&mut mem, op);
            prop_assert_eq!(got, model.apply(op), "{:?}", op);
        }
        prop_assert_eq!(mem.size(), SIZE);
        prop_assert_eq!(observe(&mem), model.observed());

        // Freezing hands over the filled prefix; everything past it is
        // zero, and the memory goes on reading the same contents.
        let image = mem.freeze_base();
        prop_assert!(image.len() <= SIZE);
        prop_assert_eq!(&image[..], &model.words[..image.len()]);
        prop_assert!(model.words[image.len()..].iter().all(|w| *w == Word::ZERO));
        prop_assert_eq!(mem.dirty_pages(), 0);
        prop_assert_eq!(observe(&mem), model.observed());
        let view = PhysMem::cow(image, SIZE);
        prop_assert_eq!(view.nonzero_words(), model.observed().contents);
    }
}
