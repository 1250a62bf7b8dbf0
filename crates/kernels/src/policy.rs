//! Kernel settings for the independent-computation kernel, plus the work
//! profile it reports to the cost model.

/// The holding-plane kernel policy: a settings-free marker.
///
/// Every holding-plane kernel (election, relabel, compaction, sort,
/// incident counts) has exactly one sequential path, so there is nothing
/// left to configure. The type, `HyParConfig::kernel_policy` and the three
/// `*_with(policy)` entry points that take it
/// ([`crate::boruvka::local_boruvka_with`],
/// [`crate::reduce::apply_ghost_parents_with`],
/// [`crate::reduce::reduce_holding_with`]) remain only because the
/// `perfbench/` harness compiles against them unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelPolicy;

/// Exception condition of the HyPar `indComp` API (§4.1.2).
///
/// Running plain Boruvka on a partition is incorrect because a component's
/// lightest edge may be a *cut edge* into another partition. The exception
/// condition says which expansions the kernel must refuse:
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExcpCond {
    /// No exception: the input is a whole graph (single-device execution or
    /// the final post-process step). Using this on a real partition produces
    /// wrong results — tests assert the kernel rejects it when cut edges are
    /// present.
    None,
    /// `EXCPT_BORDER_EDGE`: a component freezes exactly when its lightest
    /// incident edge is a cut edge (the semantics §3.2 describes). This is
    /// the default used by the MND-MST driver.
    #[default]
    BorderEdge,
    /// `EXCPT_BORDER_VERTEX`: more conservative — any component that *touches*
    /// the partition border (has at least one cut edge) freezes immediately,
    /// before expanding at all. Correct but leaves more components; the
    /// `ablation-excp` experiment quantifies the difference.
    BorderVertex,
}

/// How freezing interacts with later merges (paper §3.2 says a frozen
/// component "is not expanded further"; whether a *neighbour* may still
/// absorb it is left open, so both readings are provided).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FreezePolicy {
    /// Paper-literal: once frozen, a component never participates again this
    /// invocation, and a component formed by merging into a frozen one
    /// inherits the freeze.
    #[default]
    Sticky,
    /// Optimisation: a component's frozen status is re-derived every round
    /// from its current lightest edge (safe by the cut property; see
    /// DESIGN.md §5). Usually converges in fewer rounds.
    Recheck,
}

/// When to stop the iterative independent computation (§4.3.2): the HyPar
/// runtime watches per-iteration cost and bails out "when the execution time
/// does not show further decrease".
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum StopPolicy {
    /// Iterate until no component can expand (a fixpoint).
    #[default]
    Exhaustive,
    /// Stop early once an iteration's work (edges scanned) fails to shrink
    /// by at least `min_improvement` (fraction in `[0, 1)`) relative to the
    /// previous iteration. Mirrors the runtime's diminishing-benefits
    /// detector with modelled work standing in for measured time.
    DiminishingBenefit {
        /// Required relative per-iteration improvement, e.g. `0.05`.
        min_improvement: f64,
    },
}

impl StopPolicy {
    /// Decides whether to continue after observing consecutive iteration
    /// costs `prev` then `curr`.
    pub fn should_continue(&self, prev: u64, curr: u64) -> bool {
        match *self {
            StopPolicy::Exhaustive => true,
            StopPolicy::DiminishingBenefit { min_improvement } => {
                (curr as f64) < (prev as f64) * (1.0 - min_improvement)
            }
        }
    }
}

/// Work performed by one Boruvka iteration — the quantities the device cost
/// models convert into simulated time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IterWork {
    /// Components still active (not frozen, not merged away) at the start.
    pub active_components: u64,
    /// Edges scanned during min-edge election.
    pub edges_scanned: u64,
    /// Successful unions (components merged).
    pub unions: u64,
}

/// Per-invocation work profile.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkProfile {
    /// One entry per Boruvka iteration, in order.
    pub iters: Vec<IterWork>,
}

impl WorkProfile {
    /// Total edges scanned across iterations.
    pub fn total_scanned(&self) -> u64 {
        self.iters.iter().map(|i| i.edges_scanned).sum()
    }

    /// Total unions across iterations.
    pub fn total_unions(&self) -> u64 {
        self.iters.iter().map(|i| i.unions).sum()
    }

    /// Number of iterations.
    pub fn num_iterations(&self) -> usize {
        self.iters.len()
    }

    /// Merges another profile (e.g. across recursion levels) by
    /// concatenating iterations.
    pub fn extend(&mut self, other: &WorkProfile) {
        self.iters.extend_from_slice(&other.iters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_always_continues() {
        assert!(StopPolicy::Exhaustive.should_continue(100, 100));
        assert!(StopPolicy::Exhaustive.should_continue(100, 1000));
    }

    #[test]
    fn diminishing_benefit_stops_on_plateau() {
        let p = StopPolicy::DiminishingBenefit {
            min_improvement: 0.05,
        };
        assert!(p.should_continue(1000, 900)); // 10% better: continue
        assert!(!p.should_continue(1000, 980)); // 2% better: stop
        assert!(!p.should_continue(1000, 1100)); // worse: stop
    }

    #[test]
    fn work_profile_totals() {
        let mut w = WorkProfile::default();
        w.iters.push(IterWork {
            active_components: 10,
            edges_scanned: 100,
            unions: 5,
        });
        w.iters.push(IterWork {
            active_components: 5,
            edges_scanned: 40,
            unions: 2,
        });
        assert_eq!(w.total_scanned(), 140);
        assert_eq!(w.total_unions(), 7);
        assert_eq!(w.num_iterations(), 2);
    }
}
