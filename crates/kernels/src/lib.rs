//! # mnd-kernels — MST kernels for the MND-MST reproduction
//!
//! Everything algorithmic that runs *inside one device* lives here:
//!
//! * [`dsu`] — sequential union-find,
//! * [`filter`] — filter-Boruvka sampling: exact, deterministic pruning of
//!   provably-non-MST edges before the distributed pipeline,
//! * [`oracle`] — Kruskal, the correctness oracle every distributed test
//!   compares against, plus [`filter_kruskal`] as the practical sequential
//!   baseline,
//! * [`cgraph`] — the *contracted graph* representation all merging levels
//!   of MND-MST operate on (components + inter-component edges carrying
//!   original-edge provenance),
//! * [`boruvka`] — Boruvka's algorithm: the paper's *exception-condition*
//!   kernel (§3.2) that freezes a component whose lightest edge is a cut
//!   edge, and [`boruvka_msf`], the same kernel on a whole graph,
//! * [`reduce`] — self-edge and multi-edge removal (§3.3),
//! * [`slot`] — packed election keys and O(1) residency probes,
//! * [`idhash`] — the cheap multiplicative hasher the contraction step's
//!   id-keyed maps use,
//! * [`binning`] — degree-binned adjacency scheduling (the "hierarchical
//!   strategy for processing adjacency lists" of §3.5),
//! * [`policy`] — the diminishing-benefits stop policy (§4.3.2),
//! * [`msf`] — result types and validity checking.
//!
//! Every holding-plane kernel has one sequential path: the paper's
//! per-device parallelism is modelled by the device cost model, and every
//! simulated rank already runs on its own OS thread.

pub mod binning;
pub mod boruvka;
pub mod cgraph;
pub mod dsu;
pub mod filter;
pub mod filter_kruskal;
pub mod idhash;
pub mod msf;
pub mod oracle;
pub mod policy;
pub mod reduce;
pub mod slot;

pub use boruvka::{boruvka_msf, local_boruvka, local_boruvka_with, LocalOutput};
pub use cgraph::{CEdge, CGraph, CompId};
pub use dsu::DisjointSets;
pub use filter::{filter_edge_list, filter_holding, FilterStats};
pub use filter_kruskal::filter_kruskal_msf;
pub use msf::{verify_msf, MsfResult};
pub use oracle::kruskal_msf;
pub use policy::{ExcpCond, KernelPolicy, StopPolicy};
