//! Segment selection for the ring exchange (§3.4).
//!
//! "The processors in a group divide their components into segments and
//! exchange the segments. The segments are formed such that a processor
//! will be able to accommodate at least one segment it receives from
//! another processor in addition to the segments that it contains."
//!
//! A segment carries roughly half of the holder's wire bytes, additionally
//! capped so the segment's (paper-scale) bytes fit within the receiver's
//! guaranteed headroom. Which components make up that half is a
//! bin-packing choice ([`SegmentStrategy`]): the original first-fit suffix
//! walk, or the default size-aware best-fit-decreasing packing that fills
//! the budget with the heaviest components first — on skewed holdings the
//! latter moves the hub components immediately instead of trickling leaves,
//! so groups converge in fewer ring rounds.

use mnd_kernels::cgraph::{CEdge, CGraph, CompId};
use mnd_net::Wire;

/// A segment in flight between two ranks: resident components, their
/// edges (boundary edges are copies — see `CGraph::split_off`), and the
/// frozen marks that travel along.
#[derive(Clone, Debug)]
pub struct SegmentMsg {
    /// Component ids moving to the receiver.
    pub resident: Vec<CompId>,
    /// Edges incident to those components.
    pub edges: Vec<CEdge>,
    /// Frozen subset of `resident`.
    pub frozen: Vec<CompId>,
}

impl SegmentMsg {
    /// An empty segment (sent by converged/empty holders so the ring stays
    /// in lockstep).
    pub fn empty() -> Self {
        SegmentMsg {
            resident: Vec::new(),
            edges: Vec::new(),
            frozen: Vec::new(),
        }
    }

    /// True if nothing moves.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Converts a split-off holding into a message.
    pub fn from_holding(cg: CGraph) -> Self {
        // Destructure via accessors (CGraph fields are private).
        SegmentMsg {
            resident: cg.resident().to_vec(),
            frozen: cg.frozen().to_vec(),
            edges: cg.edges_vec(),
        }
    }

    /// Converts back into a holding at the receiver.
    pub fn into_holding(self) -> CGraph {
        let mut resident = self.resident;
        resident.sort_unstable();
        resident.dedup();
        CGraph::from_parts(resident, self.edges, self.frozen)
    }
}

impl Wire for SegmentMsg {
    /// Wire size composes from the fields: `Comm::send` charges exactly
    /// this, so the cost model sees the same bytes the receiver unpacks.
    fn wire_bytes(&self) -> u64 {
        self.resident.wire_bytes() + self.edges.wire_bytes() + self.frozen.wire_bytes()
    }
}

/// How the next outgoing segment is packed from the holder's components.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SegmentStrategy {
    /// The original walk: take the suffix of the resident list (highest
    /// ids first) until the edge budget fills. Oblivious to component
    /// sizes — a heavy hub sitting at a low id never moves until
    /// everything above it has.
    FirstFit,
    /// Size-aware best-fit decreasing: components are considered from
    /// heaviest (most incident edges) to lightest and greedily added while
    /// they fit the budget, so each round ships the fullest segment the
    /// cap allows. On skewed holdings this retires hub components in the
    /// first rounds and groups need fewer ring exchanges to converge.
    #[default]
    BestFitDecreasing,
}

/// Picks the components of the next outgoing segment: a subset of the
/// resident components carrying at most half of the holding's wire bytes,
/// capped at `max_bytes`, packed per `strategy`. The holder always keeps
/// at least one component so it still participates in collaborative
/// merging.
///
/// Returns an empty vector when the holder has fewer than 2 components
/// (nothing sensible to send).
///
/// Components are weighed by the **wire bytes** they put in the outgoing
/// [`SegmentMsg`] — resident id + incident edges × edge size + the frozen
/// mark if present — so the packing weight and the `max_bytes` cap share
/// units. The old incident-*count* weighting under-counted components with
/// frozen marks and made the cap an edge-count estimate that drifted from
/// what [`mnd_net::Comm::send`] actually charges.
pub fn choose_segment(cg: &mut CGraph, max_bytes: u64, strategy: SegmentStrategy) -> Vec<CompId> {
    let n = cg.num_resident();
    if n < 2 {
        return Vec::new();
    }
    let resident: Vec<CompId> = cg.resident().to_vec();
    let frozen: std::collections::HashSet<CompId> = cg.frozen().iter().copied().collect();
    let edge_bytes = std::mem::size_of::<CEdge>() as u64;
    let id_bytes = std::mem::size_of::<CompId>() as u64;
    let weights: Vec<u64> = cg
        .incident_counts()
        .iter()
        .zip(&resident)
        .map(|(&cnt, c)| {
            let mark = if frozen.contains(c) { id_bytes } else { 0 };
            id_bytes + cnt * edge_bytes + mark
        })
        .collect();
    let total: u64 = weights.iter().sum();
    let target = (total / 2).min(max_bytes).max(1);

    let mut acc = 0u64;
    let mut take = Vec::new();
    match strategy {
        SegmentStrategy::FirstFit => {
            // Suffix walk; the first component is taken unconditionally so
            // the segment always makes progress.
            for i in (1..n).rev() {
                let w = weights[i];
                if !take.is_empty() && acc + w > target {
                    break;
                }
                take.push(resident[i]);
                acc += w;
                if acc >= target {
                    break;
                }
            }
        }
        SegmentStrategy::BestFitDecreasing => {
            // Heaviest-first greedy packing; ties broken by id so the
            // choice is deterministic.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by(|&a, &b| {
                weights[b]
                    .cmp(&weights[a])
                    .then(resident[a].cmp(&resident[b]))
            });
            for &i in &order {
                if take.len() + 1 == n || acc >= target {
                    break;
                }
                if acc + weights[i] <= target {
                    take.push(resident[i]);
                    acc += weights[i];
                }
            }
            if take.is_empty() {
                // Every single component overshoots the budget: send the
                // lightest one anyway (minimal overshoot, same progress
                // guarantee as first-fit's unconditional first pick).
                if let Some(&i) = order.last() {
                    take.push(resident[i]);
                }
            }
        }
    }
    take.sort_unstable();
    take
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;

    fn holding(seed: u64) -> CGraph {
        CGraph::from_edge_list(&gen::gnm(100, 500, seed))
    }

    #[test]
    fn segment_round_trips_through_message() {
        let mut cg = holding(1);
        let take = choose_segment(&mut cg, u64::MAX, SegmentStrategy::default());
        assert!(!take.is_empty());
        let seg = cg.split_off(&take);
        let before = seg.clone();
        let msg = SegmentMsg::from_holding(seg);
        assert!(msg.wire_bytes() > 0);
        let back = msg.into_holding();
        assert_eq!(back, before);
    }

    #[test]
    fn segment_takes_roughly_half_edges() {
        for strategy in [
            SegmentStrategy::FirstFit,
            SegmentStrategy::BestFitDecreasing,
        ] {
            let mut cg = holding(2);
            let take = choose_segment(&mut cg, u64::MAX, strategy);
            let frac = take.len() as f64 / cg.num_resident() as f64;
            assert!((0.15..0.85).contains(&frac), "{strategy:?} fraction {frac}");
        }
    }

    #[test]
    fn best_fit_needs_no_more_components_than_first_fit() {
        let mut cg = holding(2);
        let ff = choose_segment(&mut cg, u64::MAX, SegmentStrategy::FirstFit);
        let bfd = choose_segment(&mut cg, u64::MAX, SegmentStrategy::BestFitDecreasing);
        // Both fill the same edge target; BFD does it with the heaviest
        // components, so it never needs more of them.
        assert!(bfd.len() <= ff.len(), "bfd {} > ff {}", bfd.len(), ff.len());
    }

    #[test]
    fn best_fit_ships_the_hub_of_a_star() {
        // Hub component 0 touches ten leaves: counts are 10, 1, 1, ...
        // (total 20, target 10). BFD ships the hub alone; the suffix walk
        // trickles every leaf instead.
        let edges: Vec<CEdge> = (1..=10u32)
            .map(|k| CEdge::new(0, k, mnd_graph::WEdge::new(0, k, k)))
            .collect();
        let resident: Vec<CompId> = (0..=10).collect();
        let mut cg = CGraph::from_parts(resident, edges, vec![]);
        let bfd = choose_segment(&mut cg, u64::MAX, SegmentStrategy::BestFitDecreasing);
        assert_eq!(bfd, vec![0]);
        let ff = choose_segment(&mut cg, u64::MAX, SegmentStrategy::FirstFit);
        // The suffix walk trickles leaves until the byte budget fills (it
        // stops one leaf short of half the holding's bytes, never touching
        // the hub).
        assert!(!ff.contains(&0), "first-fit must miss the hub: {ff:?}");
        assert_eq!(ff.len(), 9, "first-fit trickles the leaves: {ff:?}");
    }

    #[test]
    fn frozen_marks_count_toward_segment_weight() {
        // Components 1 and 2 have identical edge counts (one boundary edge
        // each); freezing 2 makes it strictly heavier on the wire, so BFD
        // must ship it first — under count weighting the id tiebreak would
        // pick 1.
        let edges = vec![
            CEdge::new(1, 7, mnd_graph::WEdge::new(1, 7, 1)),
            CEdge::new(2, 8, mnd_graph::WEdge::new(2, 8, 2)),
        ];
        let mut cg = CGraph::from_parts(vec![1, 2, 3], edges, vec![2]);
        let bfd = choose_segment(&mut cg, u64::MAX, SegmentStrategy::BestFitDecreasing);
        assert_eq!(bfd, vec![2], "the frozen component weighs more: {bfd:?}");
    }

    #[test]
    fn byte_cap_limits_segment() {
        let mut cg = holding(3);
        let small = choose_segment(&mut cg, 200, SegmentStrategy::default()); // ~10 edges worth
        let large = choose_segment(&mut cg, u64::MAX, SegmentStrategy::default());
        assert!(small.len() <= large.len());
        assert!(!small.is_empty());
    }

    #[test]
    fn holder_always_keeps_a_component() {
        for strategy in [
            SegmentStrategy::FirstFit,
            SegmentStrategy::BestFitDecreasing,
        ] {
            let mut cg = holding(4);
            let take = choose_segment(&mut cg, u64::MAX, strategy);
            assert!(take.len() < cg.num_resident());
        }
    }

    #[test]
    fn tiny_holdings_send_nothing() {
        let mut cg = CGraph::from_parts(vec![7], vec![], vec![]);
        assert!(choose_segment(&mut cg, u64::MAX, SegmentStrategy::default()).is_empty());
        assert!(
            choose_segment(&mut CGraph::new(), u64::MAX, SegmentStrategy::default()).is_empty()
        );
    }

    #[test]
    fn empty_message_is_empty() {
        let m = SegmentMsg::empty();
        assert!(m.is_empty());
        assert_eq!(m.wire_bytes(), 0);
        assert!(m.into_holding().is_empty());
    }
}
