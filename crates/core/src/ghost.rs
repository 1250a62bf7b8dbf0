//! The ghost directory: who currently holds which component.
//!
//! The paper's `ghostList` is "a hash table indexed on the processor id of
//! the ghost vertex" (§3.1). [`GhostDirectory`] is the equivalent
//! structure, generalised to survive the hierarchical merge: it maps a
//! component id to the rank where it is resident.
//!
//! * At level 0 the owner of component `c` (= vertex `c`) follows from the
//!   1D partition, so the directory is seeded from the vertex ranges.
//! * When segments of components move between ranks, every move is
//!   announced (the driver allgathers `(component, new owner)` deltas) and
//!   applied with [`GhostDirectory::apply_moves`].
//! * Relabels shrink the id space: when `old` merges into `new`, `old`
//!   disappears; [`GhostDirectory::apply_relabels`] drops the stale entry.
//!
//! [`relabel_buckets`] computes the paper's ghost-parent message: for each
//! rename `(old, new)` performed locally, a pair is sent to the owner of
//! every ghost component adjacent to `old` — exactly the processors whose
//! holdings reference `old` (each edge is held by the resident ranks of
//! both endpoints; see DESIGN.md).

use mnd_graph::partition::{owner_of, VertexRange};
use mnd_kernels::cgraph::{CGraph, CompId};
use mnd_kernels::idhash::{IdMap, IdSet};
use mnd_kernels::slot::SlotLookup;

/// Component → resident rank map.
#[derive(Clone, Debug, Default)]
pub struct GhostDirectory {
    ranges: Vec<VertexRange>,
    /// Overrides of the range-derived owner (components that moved).
    moved: IdMap<CompId, u32>,
}

impl GhostDirectory {
    /// Seeds the directory from the level-0 partition.
    pub fn from_ranges(ranges: Vec<VertexRange>) -> Self {
        GhostDirectory {
            ranges,
            moved: IdMap::default(),
        }
    }

    /// Current owner of component `c`.
    pub fn owner(&self, c: CompId) -> u32 {
        if let Some(&r) = self.moved.get(&c) {
            return r;
        }
        owner_of(&self.ranges, c) as u32
    }

    /// Applies announced moves (`component -> new owner`).
    pub fn apply_moves(&mut self, moves: &[(CompId, u32)]) {
        for &(c, r) in moves {
            // Keep the map small: an override equal to the range owner can
            // be dropped.
            if owner_of(&self.ranges, c) as u32 == r {
                self.moved.remove(&c);
            } else {
                self.moved.insert(c, r);
            }
        }
    }

    /// Forgets ids that were merged away (`(old, new)` relabels: `old`
    /// no longer exists anywhere).
    pub fn apply_relabels(&mut self, relabels: &[(CompId, CompId)]) {
        for &(old, _) in relabels {
            self.moved.remove(&old);
        }
    }

    /// Approximate serialized size: the ranges table plus one
    /// `(component, owner)` pair per override. Used to cost checkpoint
    /// writes (the directory has no exact wire format — it never travels
    /// over the fabric).
    pub fn approx_wire_bytes(&self) -> u64 {
        8 + self.ranges.len() as u64 * 8 + self.moved.len() as u64 * 8
    }

    /// Number of move overrides currently tracked (diagnostics).
    pub fn num_overrides(&self) -> usize {
        self.moved.len()
    }
}

/// Builds the per-destination ghost-parent buckets for a holding's relabels:
/// pair `(old, new)` goes to every distinct owner of a ghost component
/// adjacent to `old` in `cg` (after the relabel was applied locally, `old`
/// endpoints have already been renamed to `new`, so adjacency is probed via
/// `new`). `relabels` is normalised (sorted, deduplicated) as
/// [`ghost_parent_message`](mnd_kernels::reduce::ghost_parent_message)
/// leaves it.
///
/// **The emission order is part of the wire contract.** The buckets go
/// through the phased exchange, whose codec encodes fixed-size chunks of
/// each bucket separately, so reordering pairs changes the bytes on the
/// wire and with them the simulated clock. The order is first sighting in
/// one sweep over the edge rows in storage order, `a` end before `b` end:
/// the first time a renamed `new` is seen next to a ghost of owner `r`,
/// all of `new`'s `(old, new)` pairs are appended to bucket `r`, olds
/// ascending.
///
/// Returns `nranks` buckets (the own-rank bucket stays empty).
pub fn relabel_buckets(
    cg: &CGraph,
    relabels: &[(CompId, CompId)],
    dir: &GhostDirectory,
    my_rank: usize,
    nranks: usize,
) -> Vec<Vec<(CompId, CompId)>> {
    debug_assert!(
        relabels.windows(2).all(|w| w[0] < w[1]),
        "relabels must be normalised"
    );
    let mut buckets: Vec<Vec<(CompId, CompId)>> = (0..nranks).map(|_| Vec::new()).collect();
    if relabels.is_empty() {
        return buckets;
    }
    // `(new, old)` sorted, so every `new` owns one run of its olds.
    let mut by_new: Vec<(CompId, CompId)> = relabels.iter().map(|&(o, n)| (n, o)).collect();
    by_new.sort_unstable();
    let runs_len = 1 + by_new.windows(2).filter(|w| w[0].0 != w[1].0).count();
    let mut runs: IdMap<CompId, (u32, u32)> =
        IdMap::with_capacity_and_hasher(runs_len, Default::default());
    for (i, &(new, _)) in by_new.iter().enumerate() {
        runs.entry(new)
            .and_modify(|run| run.1 = i as u32 + 1)
            .or_insert((i as u32, i as u32 + 1));
    }
    let resident = SlotLookup::new(cg.resident());
    // `(owner << 32) | new` already sent: each old maps to exactly one new,
    // so this is the `(owner, old)` dedupe.
    let mut seen: IdSet<u64> = IdSet::default();
    let (ea, eb) = cg.endpoint_cols();
    for (&a, &b) in ea.iter().zip(eb) {
        for (this_end, other_end) in [(a, b), (b, a)] {
            let Some(&(lo, hi)) = runs.get(&this_end) else {
                continue;
            };
            if resident.contains(other_end) {
                continue; // neighbour lives here: already renamed locally
            }
            let owner = dir.owner(other_end);
            if owner as usize == my_rank {
                continue;
            }
            if seen.insert(((owner as u64) << 32) | this_end as u64) {
                buckets[owner as usize].extend(
                    by_new[lo as usize..hi as usize]
                        .iter()
                        .map(|&(n, o)| (o, n)),
                );
            }
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::types::WEdge;
    use mnd_kernels::cgraph::CEdge;

    fn ranges4() -> Vec<VertexRange> {
        (0..4)
            .map(|i| VertexRange {
                start: i * 10,
                end: (i + 1) * 10,
            })
            .collect()
    }

    #[test]
    fn range_owner_lookup() {
        let d = GhostDirectory::from_ranges(ranges4());
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(15), 1);
        assert_eq!(d.owner(39), 3);
    }

    #[test]
    fn moves_override_and_collapse() {
        let mut d = GhostDirectory::from_ranges(ranges4());
        d.apply_moves(&[(15, 3)]);
        assert_eq!(d.owner(15), 3);
        assert_eq!(d.num_overrides(), 1);
        // Moving back to the natural owner drops the override.
        d.apply_moves(&[(15, 1)]);
        assert_eq!(d.owner(15), 1);
        assert_eq!(d.num_overrides(), 0);
    }

    #[test]
    fn relabels_clean_stale_overrides() {
        let mut d = GhostDirectory::from_ranges(ranges4());
        d.apply_moves(&[(22, 0)]);
        d.apply_relabels(&[(22, 20)]);
        assert_eq!(d.num_overrides(), 0);
    }

    #[test]
    fn buckets_target_ghost_owners_only() {
        // Rank 0 holds comps {0, 5}; it renamed 5 -> 0. Its edges: 0~12
        // (ghost, owner 1), 0~35 (ghost, owner 3), 0~5 impossible (merged).
        let cg = CGraph::from_parts(
            vec![0],
            vec![
                CEdge::new(0, 12, WEdge::new(3, 12, 5)),
                CEdge::new(0, 35, WEdge::new(5, 35, 7)),
            ],
            vec![],
        );
        let d = GhostDirectory::from_ranges(ranges4());
        let buckets = relabel_buckets(&cg, &[(5, 0)], &d, 0, 4);
        assert_eq!(buckets[1], vec![(5, 0)]);
        assert_eq!(buckets[3], vec![(5, 0)]);
        assert!(buckets[0].is_empty() && buckets[2].is_empty());
    }

    #[test]
    fn buckets_dedup_per_destination() {
        // Two edges to ghosts owned by the same rank: one pair, not two.
        let cg = CGraph::from_parts(
            vec![0],
            vec![
                CEdge::new(0, 12, WEdge::new(3, 12, 5)),
                CEdge::new(0, 13, WEdge::new(4, 13, 6)),
            ],
            vec![],
        );
        let d = GhostDirectory::from_ranges(ranges4());
        let buckets = relabel_buckets(&cg, &[(3, 0), (5, 0)], &d, 0, 4);
        assert_eq!(buckets[1], vec![(3, 0), (5, 0)]);
    }

    #[test]
    fn empty_relabels_produce_empty_buckets() {
        let cg = CGraph::new();
        let d = GhostDirectory::from_ranges(ranges4());
        let buckets = relabel_buckets(&cg, &[], &d, 0, 4);
        assert!(buckets.iter().all(|b| b.is_empty()));
    }

    /// The hash-set bucket builder `relabel_buckets` replaced, kept as the
    /// oracle: `HashMap<new, Vec<old>>` plus a `HashSet<(owner, old, new)>`
    /// dedupe, emitting in first-sighting order.
    fn hashset_relabel_buckets(
        cg: &CGraph,
        relabels: &[(CompId, CompId)],
        dir: &GhostDirectory,
        my_rank: usize,
        nranks: usize,
    ) -> Vec<Vec<(CompId, CompId)>> {
        use std::collections::{HashMap, HashSet};
        let mut buckets: Vec<Vec<(CompId, CompId)>> = (0..nranks).map(|_| Vec::new()).collect();
        let mut renames_into: HashMap<CompId, Vec<CompId>> = HashMap::new();
        for &(old, new) in relabels {
            renames_into.entry(new).or_default().push(old);
        }
        let mut seen: HashSet<(u32, CompId, CompId)> = HashSet::new();
        for e in cg.iter_edges() {
            for (this_end, other_end) in [(e.a, e.b), (e.b, e.a)] {
                let Some(olds) = renames_into.get(&this_end) else {
                    continue;
                };
                if cg.is_resident(other_end) {
                    continue;
                }
                let owner = dir.owner(other_end);
                if owner as usize == my_rank {
                    continue;
                }
                for &old in olds {
                    if seen.insert((owner, old, this_end)) {
                        buckets[owner as usize].push((old, this_end));
                    }
                }
            }
        }
        buckets
    }

    /// splitmix64: a self-contained deterministic stream for the cases.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn buckets_equal_the_hashset_oracle_order_included() {
        let mut rng = 0x5eed_u64;
        let mut emitted = 0;
        for case in 0..300 {
            let nranks = 2 + (next(&mut rng) % 7) as usize;
            let width = 8 + (next(&mut rng) % 56) as u32;
            let ranges: Vec<VertexRange> = (0..nranks as u32)
                .map(|i| VertexRange {
                    start: i * width,
                    end: (i + 1) * width,
                })
                .collect();
            let n = nranks as u32 * width;
            let me = (next(&mut rng) % nranks as u64) as usize;
            let mut dir = GhostDirectory::from_ranges(ranges.clone());
            // Moved-component overrides, some onto this rank.
            let moves: Vec<(CompId, u32)> = (0..next(&mut rng) % 12)
                .map(|_| {
                    let c = (next(&mut rng) % n as u64) as u32;
                    (c, (next(&mut rng) % nranks as u64) as u32)
                })
                .collect();
            dir.apply_moves(&moves);
            let mine = ranges[me];
            let resident: Vec<CompId> = mine
                .iter()
                .filter(|_| !next(&mut rng).is_multiple_of(3))
                .collect();
            // Renames into a few targets, several olds each; the olds are
            // ids that no longer exist anywhere. Targets are resident as
            // in a real round, plus two ghosts of one peer joined by a row,
            // so that both ends of a row match and the `a`-before-`b` order
            // is pinned too.
            let peer = ranges[(me + 1) % nranks];
            let ghosts = [
                peer.start,
                peer.start + 1 + (next(&mut rng) % (width - 1) as u64) as u32,
            ];
            let mut targets: Vec<CompId> = resident.iter().copied().step_by(3).collect();
            targets.extend(ghosts);
            let mut relabels: Vec<(CompId, CompId)> = Vec::new();
            for old in mine.iter().filter(|c| !resident.contains(c)) {
                if !next(&mut rng).is_multiple_of(4) {
                    let new = targets[(next(&mut rng) % targets.len() as u64) as usize];
                    relabels.push((old, new));
                }
            }
            // Edges: resident-resident, resident-ghost and ghost-ghost.
            let mut edges: Vec<CEdge> = (0..next(&mut rng) % 200)
                .map(|i| {
                    let pick = |rng: &mut u64| {
                        if next(rng).is_multiple_of(2) && !resident.is_empty() {
                            resident[(next(rng) % resident.len() as u64) as usize]
                        } else {
                            (next(rng) % n as u64) as u32
                        }
                    };
                    let (a, b) = (pick(&mut rng), pick(&mut rng));
                    let i = i as u32;
                    CEdge::new(a, b, WEdge::new(i, i + 1, (next(&mut rng) % 50) as u32))
                })
                .collect();
            edges.push(CEdge::new(ghosts[0], ghosts[1], WEdge::new(900, 901, 1)));
            let cg = CGraph::from_parts(resident, edges, vec![]);
            let got = relabel_buckets(&cg, &relabels, &dir, me, nranks);
            let want = hashset_relabel_buckets(&cg, &relabels, &dir, me, nranks);
            assert_eq!(got, want, "case {case}");
            emitted += got.iter().map(Vec::len).sum::<usize>();
        }
        assert!(emitted > 1000, "cases too sparse: {emitted} pairs emitted");
    }
}
