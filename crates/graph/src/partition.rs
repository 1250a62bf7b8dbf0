//! Gemini-style contiguous 1D partitioning (§3.1 of the paper).
//!
//! "Based on the degrees, a 1D partitioning scheme is used to balance the
//! number of edges across computing units" — each partition is a contiguous
//! vertex range, chosen so every range carries roughly the same number of
//! arcs. Gemini's actual balance objective is `α·V + E`; we expose `alpha`
//! so the hybrid objective is available too (`alpha = 0` is pure edge
//! balance, which is what the paper uses for MST).

use crate::csr::CsrGraph;
use crate::types::VertexId;

/// A contiguous vertex range `[start, end)` owned by one computing unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VertexRange {
    /// First owned vertex.
    pub start: VertexId,
    /// One past the last owned vertex.
    pub end: VertexId,
}

impl VertexRange {
    /// Number of vertices in the range.
    #[inline]
    pub fn len(&self) -> u64 {
        (self.end - self.start) as u64
    }

    /// True for empty ranges (legal: more partitions than vertices).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// True if `v` falls inside the range.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        v >= self.start && v < self.end
    }

    /// Iterates the owned vertices.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = VertexId> {
        self.start..self.end
    }
}

/// Splits `0..V` into `parts` contiguous ranges balancing `alpha·V_i + E_i`
/// (arc counts). A greedy prefix scan: close the current range once its
/// score reaches the ideal share of the remaining total — the same
/// linear-time chunking Gemini performs after its allreduce of degrees.
pub fn partition_1d(g: &CsrGraph, parts: usize, alpha: f64) -> Vec<VertexRange> {
    let degrees: Vec<u64> = (0..g.num_vertices()).map(|v| g.degree(v)).collect();
    partition_1d_by_degrees(&degrees, parts, alpha)
}

/// As [`partition_1d`], but from a degree vector — the form the distributed
/// driver uses after the Gemini-style allreduce of per-slice degrees
/// (§3.1: each rank reads an offset slice of the file, degrees are summed
/// globally, then every rank derives the same cut points).
pub fn partition_1d_by_degrees(degrees: &[u64], parts: usize, alpha: f64) -> Vec<VertexRange> {
    assert!(parts >= 1);
    let n = degrees.len() as VertexId;
    let block_arcs: Vec<u64> = degrees.chunks(BLOCK).map(|b| b.iter().sum()).collect();
    let total_arcs: u64 = block_arcs.iter().sum();
    let total_score: f64 = alpha * n as f64 + total_arcs as f64;
    let mut out = Vec::with_capacity(parts);
    let mut cursor: VertexId = 0;
    let mut consumed = 0.0f64;
    for p in 0..parts {
        let remaining_parts = (parts - p) as f64;
        let target = (total_score - consumed) / remaining_parts;
        let start = cursor;
        let mut score = 0.0f64;
        while cursor < n {
            // Block skip: with `alpha == 0` every score is an arc count
            // below 2^53, so the f64 sums are exact. While a whole aligned
            // block keeps the score strictly below target, the walk below
            // would take each of its vertices and go on, so take the block
            // at once.
            if alpha == 0.0 && (cursor as usize).is_multiple_of(BLOCK) {
                let block = block_arcs[cursor as usize / BLOCK] as f64;
                if score + block < target {
                    score += block;
                    cursor = cursor.saturating_add(BLOCK as VertexId).min(n);
                    continue;
                }
            }
            let v_score = alpha + degrees[cursor as usize] as f64;
            // Take the vertex if the range is empty or if taking it keeps us
            // at-or-below target better than stopping short.
            if score > 0.0 && (score + v_score) - target > target - score {
                break;
            }
            score += v_score;
            cursor += 1;
            if score >= target {
                break;
            }
        }
        consumed += score;
        out.push(VertexRange { start, end: cursor });
    }
    // Any tail (rounding) goes to the last partition.
    if let Some(last) = out.last_mut() {
        last.end = n;
    }
    out
}

/// Vertices per block of [`partition_1d_by_degrees`]'s block skip.
const BLOCK: usize = 64;

/// Splits a single range into two by a ratio in `[0, 1]` of its arc count —
/// the intra-node CPU/GPU cut (§3.1: "divide the CSR arrays … into two
/// contiguous segments based on the ratio of CPU and GPU performance").
/// Returns `(first, second)` where `first` receives `ratio` of the arcs.
pub fn split_range_by_ratio(
    g: &CsrGraph,
    range: VertexRange,
    ratio: f64,
) -> (VertexRange, VertexRange) {
    assert!((0.0..=1.0).contains(&ratio));
    let total: u64 = range.iter().map(|v| g.degree(v)).sum();
    let target = (total as f64 * ratio).round() as u64;
    let mut acc = 0u64;
    let mut cut = range.start;
    for v in range.iter() {
        if acc >= target {
            break;
        }
        acc += g.degree(v);
        cut = v + 1;
    }
    (
        VertexRange {
            start: range.start,
            end: cut,
        },
        VertexRange {
            start: cut,
            end: range.end,
        },
    )
}

/// Maximum/average arc-count imbalance across ranges: `max_i E_i / mean E_i`.
/// Returns 1.0 for perfectly balanced partitions.
pub fn edge_imbalance(g: &CsrGraph, ranges: &[VertexRange]) -> f64 {
    let loads: Vec<u64> = ranges
        .iter()
        .map(|r| r.iter().map(|v| g.degree(v)).sum())
        .collect();
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    loads.iter().copied().max().unwrap_or(0) as f64 / mean
}

/// Finds which partition owns vertex `v` by binary search over range starts.
pub fn owner_of(ranges: &[VertexRange], v: VertexId) -> usize {
    debug_assert!(!ranges.is_empty());
    let mut lo = 0usize;
    let mut hi = ranges.len();
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if ranges[mid].start <= v {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Empty ranges may share a start; walk forward to the one containing v.
    let mut i = lo;
    while i + 1 < ranges.len() && !ranges[i].contains(v) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn covers_all_vertices_contiguously() {
        let g = CsrGraph::from_edge_list(&gen::gnm(1000, 4000, 3));
        for parts in [1, 2, 3, 7, 16] {
            let rs = partition_1d(&g, parts, 0.0);
            assert_eq!(rs.len(), parts);
            assert_eq!(rs[0].start, 0);
            assert_eq!(rs.last().unwrap().end, 1000);
            for w in rs.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
    }

    #[test]
    fn balances_edges_on_uniform_graph() {
        let g = CsrGraph::from_edge_list(&gen::gnm(2000, 10000, 5));
        let rs = partition_1d(&g, 8, 0.0);
        assert!(
            edge_imbalance(&g, &rs) < 1.25,
            "imbalance {}",
            edge_imbalance(&g, &rs)
        );
    }

    #[test]
    fn handles_more_parts_than_vertices() {
        let g = CsrGraph::from_edge_list(&gen::path(3, 0));
        let rs = partition_1d(&g, 8, 1.0);
        assert_eq!(rs.len(), 8);
        assert_eq!(rs.last().unwrap().end, 3);
        let owned: u64 = rs.iter().map(|r| r.len()).sum();
        assert_eq!(owned, 3);
    }

    #[test]
    fn ratio_split_respects_ratio() {
        let g = CsrGraph::from_edge_list(&gen::gnm(1000, 5000, 1));
        let whole = VertexRange {
            start: 0,
            end: 1000,
        };
        let (a, b) = split_range_by_ratio(&g, whole, 0.25);
        assert_eq!(a.end, b.start);
        let la: u64 = a.iter().map(|v| g.degree(v)).sum();
        let lb: u64 = b.iter().map(|v| g.degree(v)).sum();
        let frac = la as f64 / (la + lb) as f64;
        assert!((0.2..0.3).contains(&frac), "got {frac}");
    }

    #[test]
    fn ratio_split_extremes() {
        let g = CsrGraph::from_edge_list(&gen::path(10, 0));
        let whole = VertexRange { start: 0, end: 10 };
        let (a, b) = split_range_by_ratio(&g, whole, 0.0);
        assert!(a.is_empty());
        assert_eq!(b, whole);
        let (a, b) = split_range_by_ratio(&g, whole, 1.0);
        assert_eq!(a, whole);
        assert!(b.is_empty());
    }

    #[test]
    fn owner_lookup() {
        let g = CsrGraph::from_edge_list(&gen::gnm(100, 500, 2));
        let rs = partition_1d(&g, 4, 0.0);
        for v in 0..100 {
            assert!(rs[owner_of(&rs, v)].contains(v), "vertex {v}");
        }
    }
}
