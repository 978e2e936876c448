//! Page Stores (§II, §IV-D): the storage-layer servers that keep pages up
//! to date by applying redo, serve reads, and perform best-effort NDP
//! processing through a DBMS-independent plugin framework.
//!
//! * [`redo`] — redo record format and application.
//! * [`store`] — the Page Store service: slices, LSN-versioned pages,
//!   batch serving with resource control.
//! * [`plugin`] — the NDP plugin framework + the InnoDB plugin
//!   (visibility, filtering, projection, per-page and cross-page
//!   aggregation).
//! * [`cache`] — the descriptor cache (§IV-D1).
//! * [`resource`] — the dedicated NDP thread pool with bounded queue and
//!   best-effort skip (§IV-D2).

pub mod cache;
pub mod plugin;
pub mod redo;
pub mod resource;
pub mod store;

pub use cache::{CachedDescriptor, DescriptorCache};
pub use plugin::{InnodbNdpPlugin, NdpPlugin, PluginStats, GROUP_TABLE_GROUPS};
pub use redo::{RedoBody, RedoRecord};
pub use resource::{Admission, NdpPool, SkipPolicy};
pub use store::{
    FaultPolicy, NdpBatchRequest, PagePayload, PageResult, PageStore, PageStoreConfig,
};
