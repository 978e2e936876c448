//! InnoDB-flavoured page and record formats, including the paper's NDP
//! extensions (§IV-C2).
//!
//! * [`record`] — the row format: a compact header carrying the
//!   `REC_STATUS_*` record type (Listing 3 of the paper, including the two
//!   new NDP codes), delete mark and the next-record chain pointer, plus
//!   heap number and transaction id on a stored record; then a null
//!   bitmap, variable-length array and the column images.
//! * [`page`] — fixed-size (default 16 KB) index pages: FIL-style header,
//!   record heap, key-ordered record chain and a dense slot directory for
//!   in-page binary search.
//! * [`ndp_page`] — the variable-length *NDP page* a Page Store produces
//!   from a regular page: same header shape, same record iteration code
//!   path, possibly narrower/aggregated records, possibly an empty-page
//!   marker that needs no materialization.

pub mod ndp_page;
pub mod page;
pub mod record;

pub use ndp_page::NdpPageBuilder;
pub use page::{Page, PageType, FIRST_REC_NONE, HEADER_LEN, NO_PAGE};
pub use record::{
    encode_record, DecodePlan, ProjectionPlan, RecType, RecordLayout, RecordMeta, RecordView,
};
