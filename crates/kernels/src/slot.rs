//! Election slots and O(1) residency probes for the holding plane.
//!
//! A per-root election slot is one `u64` holding the packed key
//! `(weight << 32) | row` of its current winner, so the common comparison
//! is a single integer compare. The election's total order is
//! `((w, u, v), row)`: the packed word agrees with it whenever the weights
//! differ, and [`precedes`] falls back to the full `(edge key, row)`
//! comparison only on a weight tie — the `(u, v)` tie-break the oracle and
//! every byte-match test use. [`SlotLookup`] resolves a component id to its
//! resident slot in O(1) on dense holdings.

use mnd_graph::types::WEdge;

use crate::cgraph::CompId;

/// Empty-slot sentinel. `pack(u32::MAX, u32::MAX)` would collide, but a
/// holding with `u32::MAX` rows is unrepresentable (row indices are `u32`
/// and the collision needs *both* halves saturated).
pub const NONE_KEY: u64 = u64::MAX;

/// Packs an election candidate into one word: weight in the high half so
/// the integer order is `(weight, row)`.
#[inline]
pub fn pack(weight: u32, row: u32) -> u64 {
    ((weight as u64) << 32) | row as u64
}

/// The row index a packed word elects.
#[inline]
pub fn row_of(key: u64) -> u32 {
    key as u32
}

/// `true` when `a` precedes `b` under `((w, u, v), row)` — the packed-word
/// comparison except on weight ties, where the full edge key breaks them.
#[inline]
pub fn precedes(a: u64, b: u64, orig_of: &impl Fn(u32) -> WEdge) -> bool {
    if (a >> 32) != (b >> 32) {
        return a < b;
    }
    let (ra, rb) = (row_of(a), row_of(b));
    (orig_of(ra), ra) < (orig_of(rb), rb)
}

/// The widest id range (`hi - lo + 1`) that [`SlotLookup`] densifies for
/// `len` resident ids: 256 ids per resident id (at most 1 KiB of table
/// each), and never less than 2^16 ids (256 KiB).
#[inline]
pub fn dense_span_cap(len: usize) -> usize {
    len.saturating_mul(256).max(1 << 16)
}

/// Resident-slot lookup for every holding-plane residency probe. A binary
/// search over `resident` costs ~17 branchy probes per endpoint at 10⁵
/// components, so a direct-index table over the id range answers in O(1).
/// Level-0 partitions are vertex ranges, but contraction leaves a few
/// hundred roots spread over 10⁴–10⁵ ids, so the table is built up to a
/// span of 256× the resident count ([`dense_span_cap`]). Sparser holdings
/// fall back to the binary search.
pub struct SlotLookup<'a> {
    resident: &'a [CompId],
    /// `(lowest id, table)`: `table[c - lowest]` is the slot of component
    /// `c`, `u32::MAX` when `c` is not resident.
    dense: Option<(CompId, Vec<u32>)>,
}

impl<'a> SlotLookup<'a> {
    /// Builds the lookup over a sorted resident column, densified when the
    /// id range is at most [`dense_span_cap`] ids.
    pub fn new(resident: &'a [CompId]) -> Self {
        let dense = match (resident.first(), resident.last()) {
            (Some(&lo), Some(&hi)) => {
                let range = (hi - lo) as usize + 1;
                if range <= dense_span_cap(resident.len()) {
                    let mut table = vec![u32::MAX; range];
                    for (slot, &c) in resident.iter().enumerate() {
                        table[(c - lo) as usize] = slot as u32;
                    }
                    Some((lo, table))
                } else {
                    None
                }
            }
            _ => None,
        };
        SlotLookup { resident, dense }
    }

    /// True if component `c` is resident.
    #[inline]
    pub fn contains(&self, c: CompId) -> bool {
        self.get(c).is_some()
    }

    /// The resident slot of component `c`, if resident.
    #[inline]
    pub fn get(&self, c: CompId) -> Option<u32> {
        match &self.dense {
            Some((lo, table)) => match table.get(c.checked_sub(*lo)? as usize) {
                Some(&slot) if slot != u32::MAX => Some(slot),
                _ => None,
            },
            None => self.resident.binary_search(&c).ok().map(|i| i as u32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_orders_by_weight_then_row() {
        assert!(pack(1, 500) < pack(2, 0));
        assert!(pack(3, 1) < pack(3, 2));
        assert_eq!(row_of(pack(7, 42)), 42);
        assert!(pack(u32::MAX, u32::MAX - 1) < NONE_KEY);
    }

    #[test]
    fn weight_ties_break_on_edge_key_not_row() {
        // Row 1 holds the lexicographically smaller edge despite the larger
        // row index: the tie fallback must rank it first, exactly like the
        // `(edge, row)` comparison would.
        let origs = [WEdge::new(9, 9, 4), WEdge::new(0, 1, 4)];
        let orig_of = |r: u32| origs[r as usize];
        assert!(precedes(pack(4, 1), pack(4, 0), &orig_of));
        assert!(!precedes(pack(4, 0), pack(4, 1), &orig_of));
        // Different weights never consult the edge key.
        assert!(precedes(pack(3, 0), pack(4, 1), &orig_of));
    }

    #[test]
    fn slot_lookup_matches_binary_search() {
        for resident in [
            vec![],
            vec![5],
            vec![0, 1, 2, 3],
            vec![10, 20, 30, 999],
            (0..5000u32).step_by(7).collect::<Vec<_>>(),
            // Sparse enough to force the binary-search fallback.
            vec![0, 1 << 20, 1 << 24, u32::MAX - 1],
        ] {
            let lk = SlotLookup::new(&resident);
            for probe in resident
                .iter()
                .copied()
                .chain([0, 1, 6, 100, 1 << 21, u32::MAX])
            {
                assert_eq!(
                    lk.get(probe),
                    resident.binary_search(&probe).ok().map(|i| i as u32),
                    "probe {probe} in {:?}…",
                    &resident[..resident.len().min(6)]
                );
            }
        }
    }

    /// Probes every resident id, the ids just outside the range and a few
    /// in between against the binary search.
    fn assert_matches_binary_search(resident: &[CompId]) {
        let lk = SlotLookup::new(resident);
        let (lo, hi) = (resident[0], resident[resident.len() - 1]);
        let probes = resident.iter().copied().chain([
            lo.wrapping_sub(1),
            lo.wrapping_add(1),
            hi.wrapping_sub(1),
            hi.wrapping_add(1),
            lo / 2 + hi / 2,
            0,
            u32::MAX,
        ]);
        for probe in probes {
            assert_eq!(
                lk.get(probe),
                resident.binary_search(&probe).ok().map(|i| i as u32),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn table_is_built_up_to_the_span_cap_and_not_beyond() {
        // 1000 ids: 256 per id; 100 ids: the 2^16 floor.
        for (len, cap) in [(1000usize, 256_000usize), (100, 1 << 16)] {
            assert_eq!(dense_span_cap(len), cap);
            for (span, dense) in [(cap, true), (cap + 1, false)] {
                // `len` ids from 7 to `7 + span - 1`, the rest evenly apart.
                let mut resident: Vec<CompId> = (0..len as u32 - 1)
                    .map(|i| 7 + i * (span as u32 / len as u32))
                    .collect();
                resident.push(7 + span as u32 - 1);
                let lk = SlotLookup::new(&resident);
                assert_eq!(lk.dense.is_some(), dense, "len {len} span {span}");
                assert_matches_binary_search(&resident);
            }
        }
    }

    #[test]
    fn ids_near_u32_max_resolve_in_both_tiers() {
        let top = u32::MAX;
        // Dense: a short run ending at the largest id.
        assert!(SlotLookup::new(&[top - 3, top - 1, top]).dense.is_some());
        assert_matches_binary_search(&[top - 3, top - 1, top]);
        assert_matches_binary_search(&[top]);
        // Sparse: the full id range, whose span does not fit in a `u32`.
        let wide = [0, 1, top / 2, top - 1, top];
        assert!(SlotLookup::new(&wide).dense.is_none());
        assert_matches_binary_search(&wide);
    }
}
