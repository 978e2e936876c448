//! `taurus-ndp` — the paper's primary contribution: near-data processing
//! engineered into an InnoDB-style storage engine over disaggregated
//! storage.
//!
//! * [`engine`] — the compute-node engine: catalog, transactions (MVCC +
//!   undo), DML, bulk load, and the [`engine::SpaceStore`] adapter that
//!   routes every page mutation through the buffer pool and the SAL as
//!   redo.
//! * [`scan`] — the scans: the classical page-at-a-time path and the NDP
//!   path (descriptor build, level-1 batch extraction, buffer-pool overlap
//!   handling, ordered NDP-page consumption, InnoDB-side completion of
//!   raw/ambiguous work), a hash join's join filter on its probe scan's
//!   batch reads, the prepared point probe, leaf prefetch and NDP key read
//!   of a lookup join's batched key access, plus PQ range partitioning.
//! * [`replication`] — the catalog/statistics payloads read replicas
//!   rebuild their state from; the replica engine itself
//!   ([`TaurusDb::attach_replica`], [`engine::ReplicaState`]) pins every
//!   read at the replicated LSN, and the log tailer lives in
//!   `taurus-replica`.
//!
//! The executor above talks only to [`scan::scan`] through
//! [`scan::ScanConsumer`] — it cannot tell whether filtering, projection,
//! or aggregation happened in a Page Store or on the compute node, which
//! is exactly the paper's encapsulation claim.

pub mod engine;
pub mod replication;
pub mod scan;

pub use engine::{ColumnStats, ReplicaState, SpaceStore, Table, TableIndex, TableStats, TaurusDb};
pub use scan::{
    build_descriptor, partition_ranges, prefetch_leaves, scan, scan_ctx, AggItem, JoinFilter,
    KeyList, KeyRead, NdpChoice, PointLookup, ScanAggregation, ScanConsumer, ScanLayout, ScanSpec,
    ScanStats, LOOKUP_PREFETCH_PAGES_MAX,
};

// Re-export the vocabulary types users need alongside the engine.
pub use taurus_btree::{BTree, ScanRange};
pub use taurus_common::{
    ClusterConfig, Metrics, MetricsSnapshot, NdpConfig, NetworkConfig, RowBatch,
};
pub use taurus_expr::agg::{AggFunc, AggSpec, AggState};
pub use taurus_mvcc::ReadView;
pub use taurus_page::{RecordLayout, RecordView};
pub use taurus_pagestore::GROUP_TABLE_GROUPS;
