//! Reference MSF implementation: Kruskal, the workspace oracle.

use mnd_graph::types::{total_weight, WEdge};
use mnd_graph::EdgeList;

use crate::dsu::DisjointSets;
use crate::msf::MsfResult;

/// Kruskal's algorithm over a canonical edge list. O(E log E).
///
/// Under the workspace-wide total edge order `(w, u, v)` the result is the
/// unique MSF of the graph.
pub fn kruskal_msf(el: &EdgeList) -> MsfResult {
    let mut edges: Vec<WEdge> = el.edges().to_vec();
    edges.sort_unstable();
    let mut dsu = DisjointSets::new(el.num_vertices() as usize);
    let mut out = Vec::new();
    for e in edges {
        if dsu.union(e.u, e.v) {
            out.push(e);
            if dsu.num_sets() == 1 {
                break;
            }
        }
    }
    MsfResult::from_edges(el.num_vertices(), out)
}

/// Convenience: total MSF weight by Kruskal.
pub fn msf_weight(el: &EdgeList) -> u128 {
    total_weight(&kruskal_msf(el).edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;

    #[test]
    fn kruskal_on_path_takes_all_edges() {
        let el = gen::path(6, 1);
        let msf = kruskal_msf(&el);
        assert_eq!(msf.edges.len(), 5);
        assert_eq!(msf.num_components, 1);
        assert_eq!(msf.weight, total_weight(el.edges()));
    }

    #[test]
    fn kruskal_on_cycle_drops_heaviest() {
        let el = gen::cycle(7, 2);
        let msf = kruskal_msf(&el);
        assert_eq!(msf.edges.len(), 6);
        let heaviest = el.edges().iter().max().unwrap();
        assert!(!msf.edges.contains(heaviest));
    }

    #[test]
    fn kruskal_counts_components_of_forest() {
        let u = gen::disconnected_union(&[gen::path(4, 1), gen::cycle(5, 2), gen::star(3, 3)]);
        let msf = kruskal_msf(&u);
        assert_eq!(msf.num_components, 3);
        assert_eq!(msf.edges.len(), 12 - 3);
    }

    #[test]
    fn empty_graph() {
        let el = EdgeList::new(0);
        let msf = kruskal_msf(&el);
        assert!(msf.edges.is_empty());
        assert_eq!(msf.num_components, 0);
    }

    #[test]
    fn edgeless_graph_is_all_components() {
        let el = EdgeList::new(9);
        let msf = kruskal_msf(&el);
        assert_eq!(msf.num_components, 9);
    }
}
