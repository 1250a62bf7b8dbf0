//! # mnd-kernels — MST kernels for the MND-MST reproduction
//!
//! Everything algorithmic that runs *inside one device* lives here:
//!
//! * [`dsu`] — sequential and lock-free concurrent union-find,
//! * [`filter`] — filter-Boruvka sampling: exact, deterministic pruning of
//!   provably-non-MST edges before the distributed pipeline,
//! * [`oracle`] — Kruskal and Prim reference implementations (the
//!   correctness oracles every distributed test compares against), plus
//!   [`filter_kruskal`] as the practical sequential baseline,
//! * [`cgraph`] — the *contracted graph* representation all merging levels
//!   of MND-MST operate on (components + inter-component edges carrying
//!   original-edge provenance),
//! * [`boruvka`] — Boruvka's algorithm: the classic whole-graph variant and
//!   the paper's *exception-condition* variant (§3.2) that freezes a
//!   component whose lightest edge is a cut edge,
//! * [`parallel`] — the data-driven worklist variant with concurrent
//!   min-edge election (the CPU kernel of §3.5, rayon-backed),
//! * [`reduce`] — self-edge and multi-edge removal (§3.3),
//! * [`idhash`] — the cheap multiplicative hasher the contraction step's
//!   id-keyed maps use,
//! * [`scan`] — the standalone min-edge election over the holding's SoA
//!   columns, sequential and rayon-chunked,
//! * [`binning`] — degree-binned adjacency scheduling (the "hierarchical
//!   strategy for processing adjacency lists" of §3.5),
//! * [`policy`] — the diminishing-benefits stop policy (§4.3.2),
//! * [`msf`] — result types and validity checking.

pub mod binning;
pub mod boruvka;
pub mod cgraph;
pub mod contraction;
pub mod dsu;
pub mod filter;
pub mod filter_kruskal;
pub mod idhash;
pub mod lockfree;
pub mod msf;
pub mod oracle;
pub mod parallel;
pub mod policy;
pub mod reduce;
pub mod scan;

pub use boruvka::{boruvka_msf, local_boruvka, local_boruvka_with, LocalOutput};
pub use cgraph::{CEdge, CGraph, CompId};
pub use contraction::contraction_boruvka_msf;
pub use dsu::{AtomicDisjointSets, DisjointSets};
pub use filter::{filter_edge_list, filter_holding, FilterStats};
pub use filter_kruskal::filter_kruskal_msf;
pub use msf::{verify_msf, MsfResult};
pub use oracle::{kruskal_msf, prim_mst};
pub use policy::{ExcpCond, KernelClass, KernelPolicy, ParVariant, StopPolicy};
pub use scan::{
    min_edge_scan, min_edge_scan_lockfree, min_edge_scan_par, min_edge_scan_seq, min_edge_scan_with,
};
