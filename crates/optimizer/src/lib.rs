//! The query optimizer layer: the plan tree, the §IV-B
//! NDP post-processing pass, selectivity estimation, and EXPLAIN output
//! shaped like the paper's Listing 2.

pub mod explain;
pub mod ndp_post;
pub mod plan;

pub use explain::{explain, explain_physical};
pub use ndp_post::{estimate_filter_factor, ndp_post_process, NdpReport};
pub use plan::{
    AggFunc, AggItem, ExchangeNode, FilterNode, HashAggNode, HashJoinNode, JoinFilterDecision,
    JoinType, LookupJoinNode, NdpDecision, Plan, ProjectNode, RangeSpec, ScanNode, SortNode,
};
