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

/// Resident-slot lookup for every holding-plane residency probe. A binary
/// search over `resident` costs ~17 branchy probes per endpoint at 10⁵
/// components; holdings keep their resident ids nearly contiguous (level-0
/// partitions are vertex ranges), so a direct-index table over the id range
/// answers in O(1). Sparse id ranges fall back to the binary search, which
/// bounds the table at 4× the resident count.
pub struct SlotLookup<'a> {
    resident: &'a [CompId],
    /// `(lowest id, table)`: `table[c - lowest]` is the slot of component
    /// `c`, `u32::MAX` when `c` is not resident.
    dense: Option<(CompId, Vec<u32>)>,
}

impl<'a> SlotLookup<'a> {
    /// Builds the lookup over a sorted resident column. Densifies when the
    /// id range is within 4× of the resident count (with a floor so tiny
    /// holdings always densify); beyond that the table would thrash cache
    /// for no probe savings.
    pub fn new(resident: &'a [CompId]) -> Self {
        let dense = match (resident.first(), resident.last()) {
            (Some(&lo), Some(&hi)) => {
                let range = (hi - lo) as usize + 1;
                if range <= resident.len().saturating_mul(4).max(1024) {
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
}
