//! Minimum-spanning-forest result types and validity checking.
//!
//! Because the workspace-wide edge order `(w, u, v)` is total, every simple
//! graph has a *unique* MSF; [`verify_msf`] therefore checks candidate
//! results **edge-for-edge** against the Kruskal oracle, which is a much
//! stronger test than comparing weights.

use mnd_graph::types::{total_weight, VertexId, WEdge, WeightSum};
use mnd_graph::EdgeList;

use crate::dsu::DisjointSets;
use crate::oracle::kruskal_msf;

/// A minimum spanning forest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsfResult {
    /// Forest edges in canonical sorted order (by `(w, u, v)`).
    pub edges: Vec<WEdge>,
    /// Total weight.
    pub weight: WeightSum,
    /// Number of connected components of the input graph
    /// (`edges.len() == V - num_components` for V-vertex inputs counting
    /// isolated vertices).
    pub num_components: usize,
}

impl MsfResult {
    /// Builds a result from edges, computing weight and the component count
    /// implied for a graph on `num_vertices` vertices.
    pub fn from_edges(num_vertices: VertexId, mut edges: Vec<WEdge>) -> Self {
        sort_edges(&mut edges);
        let weight = total_weight(&edges);
        // components = V - forest edges (each forest edge reduces count by 1).
        let num_components = num_vertices as usize - edges.len();
        MsfResult {
            edges,
            weight,
            num_components,
        }
    }
}

/// Below this many edges [`sort_edges`] is a comparison sort: the radix
/// sort's six 2^16-entry histograms would cost more than they save.
const RADIX_MIN_EDGES: usize = 1 << 13;

/// Sorts edges into the workspace order `(w, u, v)`: a comparison sort for
/// small inputs, else an LSD radix sort over the key's six 16-bit digits
/// (`v` low half first, `w` high half last). All six histograms come from
/// one pass, and a digit every edge shares is skipped, so narrow weights
/// and small vertex ids cost fewer scatter passes. Equal keys are equal
/// edges, so the order is the same as `sort_unstable`'s.
fn sort_edges(edges: &mut Vec<WEdge>) {
    if edges.len() < RADIX_MIN_EDGES {
        edges.sort_unstable();
        return;
    }
    const DIGITS: usize = 6;
    let digit = |e: &WEdge, d: usize| -> usize {
        let word = [e.v, e.u, e.w][d / 2];
        (word >> (16 * (d % 2)) & 0xffff) as usize
    };
    let mut counts = vec![0u32; DIGITS << 16];
    for e in edges.iter() {
        for d in 0..DIGITS {
            counts[(d << 16) + digit(e, d)] += 1;
        }
    }
    let n = edges.len() as u32;
    let mut dst = edges.clone();
    let mut src = std::mem::take(edges);
    for d in 0..DIGITS {
        let hist = &mut counts[d << 16..(d + 1) << 16];
        if hist[digit(&src[0], d)] == n {
            continue; // every edge shares this digit
        }
        let mut at = 0u32;
        for c in hist.iter_mut() {
            let here = *c;
            *c = at;
            at += here;
        }
        for e in &src {
            let slot = &mut hist[digit(e, d)];
            dst[*slot as usize] = *e;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *edges = src;
}

/// Errors [`verify_msf`] can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MsfError {
    /// Candidate contains an edge that is not in the input graph (or has the
    /// wrong weight).
    ForeignEdge(WEdge),
    /// Candidate edges contain a cycle.
    Cycle(WEdge),
    /// Candidate does not span: expected/actual edge counts differ.
    WrongEdgeCount { expected: usize, actual: usize },
    /// Total weight differs from the oracle's.
    WrongWeight {
        expected: WeightSum,
        actual: WeightSum,
    },
    /// Edge sets differ even though counts and weight match (possible only
    /// with duplicate weights, which our tie-broken order makes an error).
    DifferentEdges,
}

impl std::fmt::Display for MsfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MsfError::ForeignEdge(e) => write!(f, "candidate edge {e:?} not in input graph"),
            MsfError::Cycle(e) => write!(f, "candidate edge {e:?} closes a cycle"),
            MsfError::WrongEdgeCount { expected, actual } => {
                write!(f, "expected {expected} forest edges, got {actual}")
            }
            MsfError::WrongWeight { expected, actual } => {
                write!(f, "expected total weight {expected}, got {actual}")
            }
            MsfError::DifferentEdges => write!(f, "edge sets differ from unique MSF"),
        }
    }
}

impl std::error::Error for MsfError {}

/// Verifies that `candidate` is exactly the unique MSF of `input`.
///
/// Checks, in order: membership of every candidate edge in the input,
/// acyclicity, edge count vs. the oracle, total weight vs. the oracle, and
/// finally edge-for-edge equality.
pub fn verify_msf(input: &EdgeList, candidate: &MsfResult) -> Result<(), MsfError> {
    // Membership (exact weight too — provenance must be preserved).
    let graph_edges: std::collections::HashSet<WEdge> = input.edges().iter().copied().collect();
    for e in &candidate.edges {
        if !graph_edges.contains(e) {
            return Err(MsfError::ForeignEdge(*e));
        }
    }
    // Acyclicity.
    let mut dsu = DisjointSets::new(input.num_vertices() as usize);
    for e in &candidate.edges {
        if !dsu.union(e.u, e.v) {
            return Err(MsfError::Cycle(*e));
        }
    }
    // Oracle comparison.
    let oracle = kruskal_msf(input);
    if candidate.edges.len() != oracle.edges.len() {
        return Err(MsfError::WrongEdgeCount {
            expected: oracle.edges.len(),
            actual: candidate.edges.len(),
        });
    }
    if candidate.weight != oracle.weight {
        return Err(MsfError::WrongWeight {
            expected: oracle.weight,
            actual: candidate.weight,
        });
    }
    if candidate.edges != oracle.edges {
        return Err(MsfError::DifferentEdges);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::edgelist::splitmix64;
    use mnd_graph::gen;

    #[test]
    fn radix_sort_equals_sort_unstable() {
        // Masks pick which key bits vary: every digit live; `u` and `v`
        // only in their high halves (their low digits are skipped); four
        // distinct weights (heavy ties broken by `u` then `v`); and the top
        // of the id and weight ranges.
        let masks: [(u32, u32, u32); 4] = [
            (u32::MAX, u32::MAX, u32::MAX),
            (0xffff_0000, 0xffff_0000, u32::MAX),
            (0x0000_ffff, 0x00ff_00ff, 0x3),
            (0x8000_00ff, 0xc000_0000, 0x8000_0001),
        ];
        let mut s = 3u64;
        for (i, &(mu, mv, mw)) in masks.iter().enumerate() {
            for n in [0, 1, 100, RADIX_MIN_EDGES - 1, RADIX_MIN_EDGES, 50_000] {
                let mut edges: Vec<WEdge> = (0..n)
                    .map(|_| {
                        s = splitmix64(s);
                        let (a, b) = ((s as u32) & mu, ((s >> 32) as u32) & mv);
                        s = splitmix64(s);
                        WEdge::new(a, b, (s as u32) & mw)
                    })
                    .collect();
                // Exact duplicates too: equal keys must stay adjacent.
                edges.extend_from_within(..n / 10);
                let mut expect = edges.clone();
                expect.sort_unstable();
                sort_edges(&mut edges);
                assert_eq!(edges, expect, "mask set {i}, n {n}");
            }
        }
    }

    #[test]
    fn oracle_verifies_itself() {
        let el = gen::gnm(200, 800, 3);
        let msf = kruskal_msf(&el);
        verify_msf(&el, &msf).unwrap();
    }

    #[test]
    fn detects_foreign_edge() {
        let el = gen::path(4, 1);
        let mut msf = kruskal_msf(&el);
        msf.edges[0] = WEdge::new(0, 3, 12345);
        assert!(matches!(
            verify_msf(&el, &msf),
            Err(MsfError::ForeignEdge(_))
        ));
    }

    #[test]
    fn detects_cycle() {
        let el = gen::cycle(4, 1);
        let all = MsfResult::from_edges(4, el.edges().to_vec()); // all 4 cycle edges
        assert!(matches!(verify_msf(&el, &all), Err(MsfError::Cycle(_))));
    }

    #[test]
    fn detects_wrong_count() {
        let el = gen::path(5, 1);
        let msf = kruskal_msf(&el);
        let short = MsfResult::from_edges(5, msf.edges[..3].to_vec());
        assert!(matches!(
            verify_msf(&el, &short),
            Err(MsfError::WrongEdgeCount { .. })
        ));
    }

    #[test]
    fn detects_heavier_spanning_tree() {
        // Cycle: the correct MST drops the heaviest edge; a candidate that
        // drops a lighter one is spanning + acyclic but heavier.
        let el = gen::cycle(5, 2);
        let mut edges = el.edges().to_vec();
        edges.sort_unstable();
        let heaviest = *edges.last().unwrap();
        let lightest = edges[0];
        let wrong: Vec<WEdge> = el
            .edges()
            .iter()
            .copied()
            .filter(|e| *e != lightest)
            .collect();
        assert_eq!(wrong.len(), 4);
        let cand = MsfResult::from_edges(5, wrong);
        let err = verify_msf(&el, &cand).unwrap_err();
        assert!(
            matches!(err, MsfError::WrongWeight { .. }),
            "heaviest {heaviest:?}: unexpected error {err:?}"
        );
    }

    #[test]
    fn from_edges_counts_components() {
        let r = MsfResult::from_edges(10, vec![WEdge::new(0, 1, 1), WEdge::new(2, 3, 1)]);
        assert_eq!(r.num_components, 8);
        assert_eq!(r.weight, 2);
    }
}
