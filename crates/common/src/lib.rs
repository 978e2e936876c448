//! Shared foundation types for the Taurus NDP reproduction.
//!
//! This crate holds everything the rest of the workspace agrees on:
//! SQL values and data types ([`value`]), the byte codec every format
//! that crosses a tier is written and read with ([`codec`]), table schemas and key encoding
//! ([`schema`]), the row batches operators exchange ([`batch`]), the
//! column-major batches the vector filter kernel reads ([`colbatch`]),
//! byte-keyed hash maps for the breakers ([`keymap`]), error handling
//! ([`error`]),
//! engine/cluster configuration
//! ([`config`]) and the metrics registry used to reproduce the paper's
//! network/CPU measurements ([`metrics`]).

pub mod batch;
pub mod codec;
pub mod colbatch;
pub mod config;
pub mod error;
pub mod govern;
pub mod ids;
pub mod keymap;
pub mod metrics;
pub mod schema;
pub mod value;

pub use batch::RowBatch;
pub use colbatch::{Bitmap, ColumnBatch, ColumnVec};
pub use config::{
    ClusterConfig, FaultConfig, NdpConfig, NetworkConfig, ReplicaConfig, ServerConfig,
};
pub use error::{panic_message, Error, Result};
pub use govern::{QueryCtx, TenantId, DEFAULT_TENANT};
pub use ids::{IndexId, Lsn, PageNo, PageRef, SliceId, SpaceId, TrxId};
pub use keymap::KeyMap;
pub use metrics::{Metrics, MetricsSnapshot};
pub use schema::{Column, IndexDef, KeyComparator, Row, TableSchema};
pub use value::{DataType, Date32, Dec, Value, DEC_MAX_SCALE};
