//! # reach-workloads — micro-IR workload generators
//!
//! Deterministic generators for the memory-bound kernels the paper's
//! introduction motivates (data analytics, pointer-based index structures
//! in databases) plus control workloads with predictable locality. Every
//! generator:
//!
//! * builds one shared [`Program`](reach_sim::Program) image and
//!   per-instance register seeds pointing at disjoint data (so instances
//!   can run as coroutines, SMT threads or OS threads over one binary);
//! * lays its data out in simulated memory itself; and
//! * *predicts the final checksum*, so any executor or instrumentation
//!   pass can be checked for semantic preservation.
//!
//! | generator | pattern | role |
//! |---|---|---|
//! | [`build_bfs`] | CSR-graph breadth-first search | analytics motif |
//! | [`build_bst`] | pointer BST lookups | branchy dependent walks |
//! | [`build_chase`] | dependent pointer chase | killer-nanoseconds kernel |
//! | [`build_hash`] | open-addressing probes | CoroBase/index-join pattern |
//! | [`build_search`] | branchless binary search | mixed-depth miss profile |
//! | [`build_scan`] | streaming sum | spatial locality control |
//! | [`build_multi_chase`] | independent lockstep chains | coalescing stressor |
//! | [`build_zipf_kv`] | skewed KV lookups | intermediate miss likelihood |
//! | [`build_tiered`] | multi-site tiered regions | per-site policy stressor |

mod bfs;
mod bst;
mod chase;
mod common;
mod hash;
mod multi_chase;
mod scan;
mod search;
mod tiered;
mod zipf_kv;

pub use bfs::{build as build_bfs, BfsParams, VISITED_LOAD_PC};
pub use bst::{build as build_bst, BstParams, NODE_KEY_LOAD_PC};
pub use chase::{build as build_chase, ChaseParams};
pub use common::{AddrAlloc, BuiltWorkload, InstanceSetup, CHECKSUM_REG};
pub use hash::{build as build_hash, HashParams, PROBE_LOAD_PC};
pub use multi_chase::{build as build_multi_chase, chain_load_pc, MultiChaseParams};
pub use scan::{build as build_scan, ScanParams};
pub use search::{build as build_search, SearchParams};
pub use tiered::{build as build_tiered, site_load_pc, TieredParams};
pub use zipf_kv::{build as build_zipf_kv, ZipfKvParams};
