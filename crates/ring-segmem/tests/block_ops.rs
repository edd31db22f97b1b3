//! Page-granular block operations are exactly loops of single-word
//! ones: `poke_block` ≡ a `poke` per word and `peek_block` ≡ a `peek`
//! per word, on flat and copy-on-write memory alike — contents, dirty
//! pages, poison, repairs, high-water mark and traffic counters.

use std::sync::Arc;

use proptest::prelude::*;
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
