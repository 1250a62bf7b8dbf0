//! The *contracted graph*: components plus inter-component edges with
//! original-edge provenance.
//!
//! After the first round of independent computations, every stage of
//! MND-MST (self/multi-edge removal, ring segment exchange, leader merges,
//! post-processing) manipulates graphs whose "vertices" are component ids.
//! [`CGraph`] is that uniform representation:
//!
//! * **resident** components — the ones this processor currently owns,
//! * **edges** — inter-component edges; each carries the original graph
//!   edge ([`CEdge::orig`]) so the final MSF can be reported in terms of
//!   input edges, and so weight ties break identically everywhere.
//!
//! Edges are stored **structure-of-arrays**: three parallel columns
//! (`ea`, `eb`, `eorig`) instead of a `Vec<CEdge>`. The reduce passes
//! (relabel, self/multi-edge removal, dedup) are the hot path of every
//! merge level and sweep the columns linearly; SoA keeps those sweeps
//! compact and lets them run fully in place — sorting goes through a
//! reusable index-permutation scratch buffer, and removal compacts with a
//! write cursor, so no pass allocates a new edge vector. [`CEdge`] remains
//! the *view* type: [`CGraph::edge`], [`CGraph::iter_edges`] and
//! [`CGraph::edges_vec`] materialize rows on demand for callers that want
//! the old AoS shape.
//!
//! An edge may connect a resident component to a *non-resident* one (the
//! paper's ghost component); such edges are exactly the ones the exception
//! condition of `indComp` refuses to contract.
//!
//! Edge ownership rule (see DESIGN.md): when a segment of components moves
//! between processors, edges internal to the segment move with it, while
//! edges linking the segment to components left behind are **duplicated**
//! (both processors need them to compute min edges and freezes).
//! [`CGraph::dedup_edges`] removes the duplicates whenever two holdings
//! recombine — original edges are unique per vertex pair, so identity is
//! `(orig.u, orig.v)`.

use mnd_graph::partition::VertexRange;
use mnd_graph::types::{VertexId, WEdge};
use mnd_graph::{CsrGraph, EdgeList};
use mnd_wire::Wire;

use crate::idhash::id_hash;
use crate::slot::SlotLookup;

/// A component identifier. Components are named by the smallest original
/// vertex they contain, so ids stay globally consistent without any central
/// allocator.
pub type CompId = u32;

/// An inter-component edge: current component endpoints plus the original
/// graph edge it stands for. This is the row *view* over the SoA columns
/// of [`CGraph`] (and the unit that crosses the wire inside segment
/// messages).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CEdge {
    /// One component endpoint.
    pub a: CompId,
    /// The other component endpoint.
    pub b: CompId,
    /// The original graph edge (weight + global tie-break + provenance).
    pub orig: WEdge,
}

impl CEdge {
    /// Creates an edge; component endpoints are stored canonically
    /// (`a <= b`).
    #[inline]
    pub fn new(a: CompId, b: CompId, orig: WEdge) -> Self {
        if a <= b {
            CEdge { a, b, orig }
        } else {
            CEdge { a: b, b: a, orig }
        }
    }

    /// True if both endpoints are the same component.
    #[inline]
    pub fn is_self(&self) -> bool {
        self.a == self.b
    }

    /// The component endpoint other than `c` (debug-checked).
    #[inline]
    pub fn other(&self, c: CompId) -> CompId {
        debug_assert!(c == self.a || c == self.b);
        if c == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// Total-order key: the original edge's `(w, u, v)`.
    #[inline]
    pub fn key(&self) -> (u32, VertexId, VertexId) {
        self.orig.key()
    }
}

impl Wire for CEdge {
    #[inline]
    fn wire_bytes(&self) -> u64 {
        // Two packed endpoints + the original edge (u, v, w).
        (2 * std::mem::size_of::<CompId>() as u64) + self.orig.wire_bytes()
    }
}

impl PartialOrd for CEdge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CEdge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl std::fmt::Debug for CEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[c{}~c{} via {:?}]", self.a, self.b, self.orig)
    }
}

/// Sentinel marking an already-placed slot during in-place permutation.
const PLACED: u32 = u32::MAX;

/// Empty slot of the multi-edge hash-min table (row indices stay below it).
const NO_ROW: u32 = u32::MAX;

/// Renames a sorted id column through `map`, re-sorting and deduplicating.
fn remap_ids(ids: &mut Vec<CompId>, map: &impl Fn(CompId) -> CompId) {
    for c in ids.iter_mut() {
        *c = map(*c);
    }
    ids.sort_unstable();
    ids.dedup();
}

/// Rewrites every row's endpoints through `map`, keeping the per-row
/// canonical `a <= b`.
fn remap_rows(ea: &mut [CompId], eb: &mut [CompId], map: &impl Fn(CompId) -> CompId) {
    for (a, b) in ea.iter_mut().zip(eb.iter_mut()) {
        let na = map(*a);
        let nb = map(*b);
        if na <= nb {
            *a = na;
            *b = nb;
        } else {
            *a = nb;
            *b = na;
        }
    }
}

/// A processor's current holding: resident components and the edges it
/// knows about (SoA columns).
#[derive(Clone, Debug, Default)]
pub struct CGraph {
    /// Sorted, deduplicated resident component ids.
    resident: Vec<CompId>,
    /// Edge endpoint column `a` (canonical `a <= b` per row).
    ea: Vec<CompId>,
    /// Edge endpoint column `b`.
    eb: Vec<CompId>,
    /// Original-edge column (provenance + tie-break).
    eorig: Vec<WEdge>,
    /// Components frozen by a previous `indComp` invocation (sticky across
    /// stages until a relabel merges them away or they move processors).
    frozen: Vec<CompId>,
    /// Reusable index buffer for in-place sorts; never part of identity.
    scratch: Vec<u32>,
    /// Reusable per-resident incident-count column (see
    /// [`CGraph::incident_counts`]); never part of identity.
    counts: Vec<u64>,
}

impl PartialEq for CGraph {
    fn eq(&self, other: &Self) -> bool {
        self.resident == other.resident
            && self.ea == other.ea
            && self.eb == other.eb
            && self.eorig == other.eorig
            && self.frozen == other.frozen
    }
}

impl CGraph {
    /// Empty holding.
    pub fn new() -> Self {
        CGraph::default()
    }

    /// Builds the level-0 holding for a partition of the input graph:
    /// every owned vertex is a singleton component; edges are all edges
    /// touching the range (cut edges included, held by the inside endpoint;
    /// internal edges held once).
    pub fn from_partition(g: &CsrGraph, range: VertexRange) -> Self {
        let mut cg = CGraph {
            resident: range.iter().collect(),
            ..CGraph::default()
        };
        for e in g.edges_touching_range(range.start, range.end) {
            cg.push_edge(CEdge::new(e.u, e.v, e));
        }
        cg
    }

    /// Builds a whole-graph holding (single-device execution): all vertices
    /// resident, all edges held.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        let mut cg = CGraph {
            resident: (0..el.num_vertices()).collect(),
            ..CGraph::default()
        };
        for e in el.edges() {
            cg.push_edge(CEdge::new(e.u, e.v, *e));
        }
        cg
    }

    /// Constructs from parts (used by segment transfer). `resident` must be
    /// sorted and deduplicated.
    pub fn from_parts(resident: Vec<CompId>, edges: Vec<CEdge>, frozen: Vec<CompId>) -> Self {
        debug_assert!(resident.windows(2).all(|w| w[0] < w[1]));
        let mut cg = CGraph {
            resident,
            frozen,
            ..CGraph::default()
        };
        cg.ea.reserve(edges.len());
        cg.eb.reserve(edges.len());
        cg.eorig.reserve(edges.len());
        for e in edges {
            cg.push_edge(e);
        }
        cg
    }

    /// Resident component ids (sorted).
    #[inline]
    pub fn resident(&self) -> &[CompId] {
        &self.resident
    }

    /// Number of resident components.
    #[inline]
    pub fn num_resident(&self) -> usize {
        self.resident.len()
    }

    /// Number of held edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.ea.len()
    }

    /// The `i`-th edge as a row view.
    #[inline]
    pub fn edge(&self, i: usize) -> CEdge {
        CEdge {
            a: self.ea[i],
            b: self.eb[i],
            orig: self.eorig[i],
        }
    }

    /// Iterates the edges as row views, in storage order.
    #[inline]
    pub fn iter_edges(&self) -> impl Iterator<Item = CEdge> + '_ {
        self.ea
            .iter()
            .zip(&self.eb)
            .zip(&self.eorig)
            .map(|((&a, &b), &orig)| CEdge { a, b, orig })
    }

    /// The edge endpoint columns `(a, b)` (canonical `a <= b` per row).
    #[inline]
    pub fn endpoint_cols(&self) -> (&[CompId], &[CompId]) {
        (&self.ea, &self.eb)
    }

    /// The original-edge column.
    #[inline]
    pub fn orig_col(&self) -> &[WEdge] {
        &self.eorig
    }

    /// Materializes the edges as an AoS vector (compatibility accessor for
    /// tests and message assembly; hot paths use the columns directly).
    pub fn edges_vec(&self) -> Vec<CEdge> {
        self.iter_edges().collect()
    }

    /// Appends one edge.
    #[inline]
    pub fn push_edge(&mut self, e: CEdge) {
        self.ea.push(e.a);
        self.eb.push(e.b);
        self.eorig.push(e.orig);
    }

    /// Components frozen by the last independent computation.
    #[inline]
    pub fn frozen(&self) -> &[CompId] {
        &self.frozen
    }

    /// Replaces the frozen set (kernels call this after an invocation).
    pub fn set_frozen(&mut self, mut frozen: Vec<CompId>) {
        frozen.sort_unstable();
        frozen.dedup();
        self.frozen = frozen;
    }

    /// Clears freeze marks (done when residency changes — a component that
    /// froze on a cut edge may be able to expand once its neighbour becomes
    /// resident).
    pub fn clear_frozen(&mut self) {
        self.frozen.clear();
    }

    /// True if `c` is resident here.
    #[inline]
    pub fn is_resident(&self, c: CompId) -> bool {
        self.resident.binary_search(&c).is_ok()
    }

    /// True if the holding has no resident components and no edges.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty() && self.ea.is_empty()
    }

    /// Number of edges with a non-resident endpoint (the holding's "ghost
    /// degree" — drives communication volume).
    pub fn num_cut_edges(&self) -> usize {
        self.ea
            .iter()
            .zip(&self.eb)
            .filter(|&(&a, &b)| !self.is_resident(a) || !self.is_resident(b))
            .count()
    }

    /// Replaces the resident set (sorted + deduplicated by this call).
    pub fn set_resident(&mut self, mut resident: Vec<CompId>) {
        resident.sort_unstable();
        resident.dedup();
        self.resident = resident;
    }

    /// Applies a component renaming to **all** edge endpoints. `map` returns
    /// the new id of a component (identity for unknown ids). Resident ids
    /// and frozen marks are remapped too.
    pub fn relabel(&mut self, map: impl Fn(CompId) -> CompId) {
        remap_rows(&mut self.ea, &mut self.eb, &map);
        remap_ids(&mut self.resident, &map);
        remap_ids(&mut self.frozen, &map);
    }

    /// Renames *ghost* endpoints: every non-resident endpoint `c` with
    /// `rename(c) == Some(new)` becomes `new`; resident endpoints stay as
    /// they are, so the resident column is untouched. Equivalent to
    /// [`CGraph::relabel`] under the map "resident ids fixed, else `rename`
    /// or identity", but `rename` is probed first and residency (an O(1)
    /// [`SlotLookup`] probe on dense holdings) only on a hit.
    pub(crate) fn relabel_ghosts(&mut self, rename: impl Fn(CompId) -> Option<CompId>) {
        let resident = SlotLookup::new(&self.resident);
        let map = |c: CompId| match rename(c) {
            Some(new) if !resident.contains(c) => new,
            _ => c,
        };
        remap_rows(&mut self.ea, &mut self.eb, &map);
        remap_ids(&mut self.frozen, &map);
    }

    /// In-place column compaction: keeps row `i` iff `keep(i)`, preserving
    /// order, with an allocation-free write cursor.
    fn retain_rows(&mut self, keep: impl Fn(&Self, usize) -> bool) {
        let n = self.ea.len();
        let mut w = 0usize;
        for i in 0..n {
            if keep(self, i) {
                if w != i {
                    self.ea[w] = self.ea[i];
                    self.eb[w] = self.eb[i];
                    self.eorig[w] = self.eorig[i];
                }
                w += 1;
            }
        }
        self.truncate_rows(w);
    }

    /// Keeps exactly the rows whose flag is `true` (one flag per current
    /// row, storage order preserved). The external-mask companion to the
    /// predicate-driven reductions: callers that computed a keep decision
    /// elsewhere (e.g. the filter-Boruvka sweep) compact through the same
    /// write-cursor path.
    pub fn retain_edge_rows(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.num_edges(), "one flag per edge row");
        self.retain_rows(|_, i| keep[i]);
    }

    /// Drops every row past `w` from the three columns.
    fn truncate_rows(&mut self, w: usize) {
        self.ea.truncate(w);
        self.eb.truncate(w);
        self.eorig.truncate(w);
    }

    /// Applies permutation `perm` (result row `i` = current row `perm[i]`)
    /// to all three columns in place by cycle-walking; `perm` is consumed
    /// (overwritten with [`PLACED`] marks).
    fn apply_perm(&mut self, perm: &mut [u32]) {
        let n = perm.len();
        for start in 0..n {
            if perm[start] == PLACED || perm[start] as usize == start {
                continue;
            }
            let (ta, tb, torig) = (self.ea[start], self.eb[start], self.eorig[start]);
            let mut dst = start;
            loop {
                let src = perm[dst] as usize;
                perm[dst] = PLACED;
                if src == start {
                    self.ea[dst] = ta;
                    self.eb[dst] = tb;
                    self.eorig[dst] = torig;
                    break;
                }
                self.ea[dst] = self.ea[src];
                self.eb[dst] = self.eb[src];
                self.eorig[dst] = self.eorig[src];
                dst = src;
            }
        }
    }

    /// Sorts the edge rows by `key` without allocating a row vector: an
    /// index permutation is built in the reusable scratch buffer, sorted,
    /// and applied across the columns by cycle-walking. The sort key is made
    /// injective by appending the row index, so the row order is fully
    /// determined.
    fn sort_rows_by_key<K: Ord>(&mut self, key: impl Fn(&Self, usize) -> K) {
        let n = self.ea.len();
        let mut perm = std::mem::take(&mut self.scratch);
        perm.clear();
        perm.extend(0..n as u32);
        perm.sort_unstable_by_key(|&i| (key(self, i as usize), i));
        self.apply_perm(&mut perm);
        self.scratch = perm;
    }

    /// Removes self edges (endpoints in the same component) — the paper's
    /// `removeSelfEdges` (§3.3). In-place compaction.
    pub fn remove_self_edges(&mut self) {
        self.retain_rows(|cg, i| cg.ea[i] != cg.eb[i]);
    }

    /// Keeps only the lightest edge between every component pair — the
    /// paper's `removeMultiEdges` (§3.3) — as a hash table of per-pair
    /// minimums: one pass records the minimum-`(w, u, v)` row of every
    /// packed `(a << 32) | b` pair (the first such row on exact ties), the
    /// winners are compacted in storage order through a bitmap, and the
    /// survivors are sorted into canonical `(key, a, b)` order only if they
    /// are not in it already. Table and bitmap live in the holding's
    /// reusable scratch (4 bytes a table slot), which a holding keeps
    /// across rounds: allocating a fresh table per call made peak RSS
    /// creep from run to run under glibc's allocator.
    pub fn remove_multi_edges(&mut self) {
        debug_assert!(
            self.ea.iter().zip(&self.eb).all(|(a, b)| a != b),
            "run remove_self_edges first"
        );
        let n = self.ea.len();
        // Table (at most 3/4 full) and keep-bitmap share the scratch, so
        // holdings reuse one buffer across rounds instead of allocating.
        let cap = (n + n / 3 + 1).next_power_of_two();
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.resize(cap + n.div_ceil(32), NO_ROW);
        let (table, keep) = buf.split_at_mut(cap);
        if self.lightest_row_per_pair(table) < n {
            keep.fill(0);
            for &row in table.iter().filter(|&&r| r != NO_ROW) {
                keep[(row / 32) as usize] |= 1 << (row % 32);
            }
            self.retain_rows(|_, i| keep[i / 32] >> (i % 32) & 1 != 0);
        }
        self.scratch = buf;
        // Canonical order is by key; the pair breaks key ties (two rows
        // holding the same original edge), as a `(a, b, key)` co-sort
        // followed by a stable key sort would.
        let sort_key = |cg: &Self, i: usize| (cg.eorig[i].key(), cg.ea[i], cg.eb[i]);
        if !(1..self.ea.len()).all(|i| sort_key(self, i - 1) <= sort_key(self, i)) {
            self.sort_rows_by_key(sort_key);
        }
    }

    /// The hash-min pass of [`CGraph::remove_multi_edges`]: fills
    /// `table` (a power of two long, all [`NO_ROW`], with room for every
    /// row) as an open-addressing table keyed by each row's packed
    /// `(a << 32) | b` pair, probed linearly, until every pair's slot
    /// holds its minimum-`(w, u, v)` row — the first such row on exact
    /// ties. A slot is a bare row index; pair and key are read back from
    /// the columns. Returns the number of pairs (= survivors).
    fn lightest_row_per_pair(&self, table: &mut [u32]) -> usize {
        let pair = |r: u32| ((self.ea[r as usize] as u64) << 32) | self.eb[r as usize] as u64;
        let mask = table.len() - 1;
        let mut pairs = 0usize;
        for i in 0..self.ea.len() as u32 {
            let p = pair(i);
            let mut s = id_hash(p) as usize & mask;
            while table[s] != NO_ROW && pair(table[s]) != p {
                s = (s + 1) & mask;
            }
            match table[s] {
                NO_ROW => {
                    table[s] = i;
                    pairs += 1;
                }
                r if self.eorig[i as usize].key() < self.eorig[r as usize].key() => table[s] = i,
                _ => {}
            }
        }
        pairs
    }

    /// Removes duplicate holdings of the *same original edge* (arises when
    /// a moved segment recombines with a holding that kept a boundary copy).
    /// In place: rows are co-sorted by `(u, v, a, b)` through the index
    /// scratch, each original-edge run is compacted to its first row, then
    /// canonical order is restored.
    pub fn dedup_edges(&mut self) {
        self.sort_rows_by_key(|cg, i| (cg.eorig[i].u, cg.eorig[i].v, cg.ea[i], cg.eb[i]));
        self.retain_rows(|cg, i| {
            i == 0 || cg.eorig[i].u != cg.eorig[i - 1].u || cg.eorig[i].v != cg.eorig[i - 1].v
        });
        self.sort_edges();
    }

    /// Canonical deterministic edge order (by original-edge key).
    pub fn sort_edges(&mut self) {
        self.sort_rows_by_key(|cg, i| cg.eorig[i].key());
    }

    /// Per-resident-component incident-edge counts (slot `i` counts edges
    /// touching `resident()[i]`; a self edge counts twice, matching a
    /// per-endpoint tally). Endpoints resolve to slots through
    /// [`SlotLookup`]. The column lives in reusable scratch, so the repeated
    /// callers — device splitting, skew estimation, segment choice — share
    /// one allocation per holding.
    pub fn incident_counts(&mut self) -> &[u64] {
        let mut counts = std::mem::take(&mut self.counts);
        counts.clear();
        counts.resize(self.resident.len(), 0);
        let slots = SlotLookup::new(&self.resident);
        for (&a, &b) in self.ea.iter().zip(&self.eb) {
            for c in [a, b] {
                if let Some(slot) = slots.get(c) {
                    counts[slot as usize] += 1;
                }
            }
        }
        self.counts = counts;
        &self.counts
    }

    /// Absorbs another holding: unions resident sets, concatenates edges,
    /// dedups same-original edges, merges freeze marks.
    pub fn absorb(&mut self, other: CGraph) {
        self.resident.extend(other.resident);
        self.resident.sort_unstable();
        self.resident.dedup();
        self.ea.extend(other.ea);
        self.eb.extend(other.eb);
        self.eorig.extend(other.eorig);
        self.dedup_edges();
        self.frozen.extend(other.frozen);
        self.frozen.sort_unstable();
        self.frozen.dedup();
    }

    /// Splits off the components in `take` (must be a subset of resident)
    /// into a new holding. Edges fully inside `take` move; boundary edges
    /// (one endpoint in `take`, one resident endpoint remaining) are
    /// **copied** to the new holding and retained here; edges with a
    /// non-resident endpoint in `take`'s perspective follow the same rule.
    pub fn split_off(&mut self, take: &[CompId]) -> CGraph {
        let take_set: std::collections::HashSet<CompId> = take.iter().copied().collect();
        debug_assert!(take.iter().all(|c| self.is_resident(*c)), "take ⊄ resident");

        let mut moved = CGraph::new();
        // Single sweep: rows moving to the segment are pushed to `moved`,
        // rows staying are compacted in place with a write cursor.
        let n = self.ea.len();
        let mut w = 0usize;
        for i in 0..n {
            let (a, b) = (self.ea[i], self.eb[i]);
            let a_in = take_set.contains(&a);
            let b_in = take_set.contains(&b);
            let (goes, stays) = match (a_in, b_in) {
                (true, true) => (true, false),
                (false, false) => (false, true),
                _ => {
                    // Boundary edge: the mover always needs it; the holder
                    // keeps a copy only if its side of the edge remains
                    // resident (otherwise the edge is pure ghost-to-ghost
                    // here and would only waste memory).
                    let stay_end = if a_in { b } else { a };
                    (true, self.is_resident(stay_end))
                }
            };
            if goes {
                moved.push_edge(CEdge {
                    a,
                    b,
                    orig: self.eorig[i],
                });
            }
            if stays {
                if w != i {
                    self.ea[w] = self.ea[i];
                    self.eb[w] = self.eb[i];
                    self.eorig[w] = self.eorig[i];
                }
                w += 1;
            }
        }
        self.ea.truncate(w);
        self.eb.truncate(w);
        self.eorig.truncate(w);

        let mut new_resident: Vec<CompId> = take.to_vec();
        new_resident.sort_unstable();
        new_resident.dedup();
        moved.resident = new_resident;
        self.resident.retain(|c| !take_set.contains(c));
        moved.frozen = self
            .frozen
            .iter()
            .copied()
            .filter(|c| take_set.contains(c))
            .collect();
        self.frozen.retain(|c| !take_set.contains(c));
        moved
    }

    /// Approximate in-memory footprint in bytes — the quantity the
    /// hierarchical merge compares against a node's memory capacity.
    /// (SoA columns total the same 20 bytes/edge as the packed row view.)
    pub fn approx_bytes(&self) -> usize {
        self.resident.len() * 4 + self.ea.len() * std::mem::size_of::<CEdge>()
    }

    /// Structural sanity check for tests: resident sorted/deduped, per-row
    /// canonical endpoints, no edge duplicated by original identity.
    pub fn validate(&self) -> Result<(), String> {
        if !self.resident.windows(2).all(|w| w[0] < w[1]) {
            return Err("resident not sorted+dedup".into());
        }
        if self.ea.len() != self.eb.len() || self.ea.len() != self.eorig.len() {
            return Err("SoA columns out of sync".into());
        }
        let mut seen = std::collections::HashSet::with_capacity(self.ea.len());
        for i in 0..self.ea.len() {
            if self.ea[i] > self.eb[i] {
                return Err(format!("row {i} violates a <= b"));
            }
            let orig = &self.eorig[i];
            if !seen.insert((orig.u, orig.v)) {
                return Err(format!("duplicate original edge {orig:?}"));
            }
        }
        for f in &self.frozen {
            if !self.is_resident(*f) {
                return Err(format!("frozen non-resident component {f}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;

    fn path4() -> CsrGraph {
        CsrGraph::from_edge_list(&gen::path(4, 1))
    }

    #[test]
    fn from_partition_includes_cut_edges() {
        let g = path4();
        let cg = CGraph::from_partition(&g, VertexRange { start: 1, end: 3 });
        assert_eq!(cg.resident(), &[1, 2]);
        assert_eq!(cg.num_edges(), 3); // 0-1 (cut), 1-2 (internal), 2-3 (cut)
        assert_eq!(cg.num_cut_edges(), 2);
        cg.validate().unwrap();
    }

    #[test]
    fn whole_graph_has_no_cut_edges() {
        let el = gen::gnm(50, 100, 3);
        let cg = CGraph::from_edge_list(&el);
        assert_eq!(cg.num_cut_edges(), 0);
        assert_eq!(cg.num_resident(), 50);
    }

    #[test]
    fn relabel_merges_resident_ids() {
        let g = path4();
        let mut cg = CGraph::from_partition(&g, VertexRange { start: 0, end: 4 });
        cg.relabel(|c| if c == 1 { 0 } else { c });
        assert_eq!(cg.resident(), &[0, 2, 3]);
        // Edge 0-1 became a self edge.
        assert_eq!(cg.iter_edges().filter(|e| e.is_self()).count(), 1);
        cg.remove_self_edges();
        assert_eq!(cg.num_edges(), 2);
    }

    #[test]
    fn multi_edge_removal_keeps_lightest() {
        let e1 = WEdge::new(0, 2, 5);
        let e2 = WEdge::new(1, 3, 2);
        let mut cg = CGraph::from_parts(
            vec![0, 1],
            vec![CEdge::new(0, 1, e1), CEdge::new(0, 1, e2)],
            vec![],
        );
        cg.remove_multi_edges();
        assert_eq!(cg.num_edges(), 1);
        assert_eq!(cg.edge(0).orig, e2);
    }

    #[test]
    fn in_place_sort_matches_aos_sort() {
        // The permutation sort over SoA columns must order rows exactly as
        // sorting the materialized CEdge vector would.
        let el = gen::gnm(60, 300, 17);
        let mut cg = CGraph::from_edge_list(&el);
        let mut rows = cg.edges_vec();
        cg.sort_rows_by_key(|cg, i| (cg.eb[i], cg.ea[i], cg.eorig[i].key()));
        rows.sort_unstable_by_key(|e| (e.b, e.a, e.key()));
        assert_eq!(cg.edges_vec(), rows);
        // And the scratch buffer is reused across calls, not regrown.
        let cap = cg.scratch.capacity();
        cg.sort_edges();
        assert_eq!(cg.scratch.capacity(), cap);
    }

    #[test]
    fn split_off_copies_boundary_edges() {
        // Components 0,1,2 resident; edges 0-1, 1-2, 2-9 (9 non-resident).
        let mut cg = CGraph::from_parts(
            vec![0, 1, 2],
            vec![
                CEdge::new(0, 1, WEdge::new(0, 1, 1)),
                CEdge::new(1, 2, WEdge::new(1, 2, 2)),
                CEdge::new(2, 9, WEdge::new(2, 9, 3)),
            ],
            vec![],
        );
        let seg = cg.split_off(&[2]);
        assert_eq!(seg.resident(), &[2]);
        // Segment takes 1-2 (boundary, copied) and 2-9 (its only resident
        // endpoint is moving, so it moves as a "boundary" copy as well).
        assert_eq!(seg.num_edges(), 2);
        assert_eq!(cg.resident(), &[0, 1]);
        // Holder keeps 0-1 and the boundary copy of 1-2, but drops 2-9
        // (after the split neither endpoint 2 nor 9 is resident here).
        assert_eq!(cg.num_edges(), 2);
        assert!(cg.iter_edges().any(|e| e.orig == WEdge::new(1, 2, 2)));
        assert!(!cg.iter_edges().any(|e| e.orig == WEdge::new(2, 9, 3)));
    }

    #[test]
    fn absorb_dedups_boundary_copies() {
        let shared = CEdge::new(1, 2, WEdge::new(1, 2, 2));
        let mut a = CGraph::from_parts(vec![1], vec![shared], vec![]);
        let b = CGraph::from_parts(vec![2], vec![shared], vec![]);
        a.absorb(b);
        assert_eq!(a.resident(), &[1, 2]);
        assert_eq!(a.num_edges(), 1);
        a.validate().unwrap();
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let empty = CGraph::new();
        let el = gen::gnm(100, 400, 1);
        let cg = CGraph::from_edge_list(&el);
        assert!(cg.approx_bytes() > empty.approx_bytes());
    }

    #[test]
    fn validate_catches_duplicates() {
        let e = CEdge::new(0, 1, WEdge::new(0, 1, 1));
        let cg = CGraph::from_parts(vec![0, 1], vec![e, e], vec![]);
        assert!(cg.validate().is_err());
    }

    #[test]
    fn cedge_wire_bytes_is_packed_row_size() {
        let e = CEdge::new(0, 1, WEdge::new(0, 1, 1));
        assert_eq!(e.wire_bytes(), std::mem::size_of::<CEdge>() as u64);
    }
}
