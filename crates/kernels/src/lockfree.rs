//! Lock-free kernel-plane primitives: packed `(weight << 32) | row` atomic
//! words, the CAS fetch-min loop, and O(1) resident-slot lookup.
//!
//! The chunk-and-merge parallel plane (PR 3) pays for its determinism with
//! per-chunk winner tables and a merge pass per chunk. The lock-free plane
//! removes both: every resident slot owns one `AtomicU64` holding the packed
//! key of its current winner, and workers race CAS fetch-min loops against
//! it — the shared-memory design of the SNIPPETS.md exemplars (abarankab's
//! `encode_edge(id, weight)`, pashagoose's `chippestEdgeOut`).
//!
//! ## Why the result is still byte-identical to sequential
//!
//! The sequential election orders candidates by the total order
//! `(original edge key, row index)` = `((w, u, v), row)`. The packed word
//! orders by `(w, row)` — identical whenever weights differ, but under a
//! weight tie the packed order could disagree with the `(u, v)` tie-break
//! the sequential kernel (and Kruskal, and every downstream byte-match
//! oracle) uses. [`fetch_min_edge`] therefore compares the packed words as
//! the fast path and falls back to the full `(edge key, row)` comparison
//! only when the weights are equal. A fetch-min under a total order is
//! commutative and idempotent, so every interleaving of every thread count
//! converges to the same per-slot winner: the global minimum. Memory
//! ordering needs only the CAS's own atomicity for that argument — the
//! sweep is racy by design and correct under any ordering — but winners are
//! published with `AcqRel` so the post-join reader also sees the winning
//! row's payload without relying on the join's barrier.

use std::sync::atomic::{AtomicU64, Ordering};

use mnd_graph::types::WEdge;

use crate::cgraph::CompId;

/// Empty-slot sentinel. `pack(u32::MAX, u32::MAX)` would collide, but a
/// holding with `u32::MAX` rows is unrepresentable (row indices are `u32`
/// and the collision needs *both* halves saturated).
pub const NONE_KEY: u64 = u64::MAX;

/// Packs an election candidate into one atomic word: weight in the high
/// half so the integer order is `(weight, row)`.
#[inline]
pub fn pack(weight: u32, row: u32) -> u64 {
    ((weight as u64) << 32) | row as u64
}

/// The row index a packed word elects.
#[inline]
pub fn row_of(key: u64) -> u32 {
    key as u32
}

/// Lock-free fetch-min of `key` into `slot` under the sequential election's
/// total order. `orig_of` resolves a row index to its original edge and is
/// consulted only on weight ties (see module docs).
#[inline]
pub fn fetch_min_edge(slot: &AtomicU64, key: u64, orig_of: &impl Fn(u32) -> WEdge) {
    let mut cur = slot.load(Ordering::Relaxed);
    loop {
        if cur != NONE_KEY && !precedes(key, cur, orig_of) {
            return;
        }
        match slot.compare_exchange_weak(cur, key, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// `true` when `a` precedes `b` under `((w, u, v), row)` — the packed-word
/// comparison except on weight ties, where the full edge key breaks them.
#[inline]
fn precedes(a: u64, b: u64, orig_of: &impl Fn(u32) -> WEdge) -> bool {
    if (a >> 32) != (b >> 32) {
        return a < b;
    }
    let (ra, rb) = (row_of(a), row_of(b));
    (orig_of(ra), ra) < (orig_of(rb), rb)
}

/// Resident-slot lookup for the lock-free sweeps and the contraction step's
/// residency probes. A binary search over `resident` costs ~17 branchy
/// probes per endpoint at 10⁵ components; holdings keep their resident ids
/// nearly contiguous (level-0 partitions are vertex ranges), so a
/// direct-index table over the id range answers in O(1). Sparse id ranges
/// fall back to the binary search, which bounds the table at 4× the
/// resident count.
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

// The lock-free count kernel reinterprets the holding's reusable `Vec<u64>`
// scratch as atomic words for the duration of one sweep; both layouts must
// agree exactly for that cast to be sound.
const _: () = assert!(std::mem::size_of::<u64>() == std::mem::size_of::<AtomicU64>());
const _: () = assert!(std::mem::align_of::<u64>() == std::mem::align_of::<AtomicU64>());

/// Views an exclusively-borrowed `u64` slice as atomic words so parallel
/// workers can `fetch_add` into it without a per-chunk partial table. Sound
/// because the borrow is exclusive (no non-atomic access can race) and the
/// layouts are asserted identical above.
pub(crate) fn as_atomic_u64(xs: &mut [u64]) -> &[AtomicU64] {
    // SAFETY: size/align asserted at compile time; `&mut` guarantees no
    // other reference (atomic or plain) aliases the slice for the lifetime
    // of the returned view; every element is a valid AtomicU64 bit pattern.
    unsafe { std::slice::from_raw_parts(xs.as_mut_ptr() as *const AtomicU64, xs.len()) }
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
    fn fetch_min_keeps_the_smaller_key() {
        let origs = [WEdge::new(0, 1, 5), WEdge::new(2, 3, 3)];
        let orig_of = |r: u32| origs[r as usize];
        let slot = AtomicU64::new(NONE_KEY);
        fetch_min_edge(&slot, pack(5, 0), &orig_of);
        assert_eq!(slot.load(Ordering::Relaxed), pack(5, 0));
        fetch_min_edge(&slot, pack(3, 1), &orig_of);
        assert_eq!(slot.load(Ordering::Relaxed), pack(3, 1));
        fetch_min_edge(&slot, pack(5, 0), &orig_of);
        assert_eq!(slot.load(Ordering::Relaxed), pack(3, 1));
    }

    #[test]
    fn weight_ties_break_on_edge_key_not_row() {
        // Row 1 holds the lexicographically smaller edge despite the larger
        // row index: the tie fallback must pick it, exactly like the
        // sequential `(edge, row)` comparison would.
        let origs = [WEdge::new(9, 9, 4), WEdge::new(0, 1, 4)];
        let orig_of = |r: u32| origs[r as usize];
        let slot = AtomicU64::new(pack(4, 0));
        fetch_min_edge(&slot, pack(4, 1), &orig_of);
        assert_eq!(slot.load(Ordering::Relaxed), pack(4, 1));
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

    #[test]
    fn atomic_view_round_trips() {
        let mut xs = vec![1u64, 2, 3];
        let view = as_atomic_u64(&mut xs);
        view[1].fetch_add(40, Ordering::Relaxed);
        assert_eq!(xs, vec![1, 42, 3]);
    }
}
