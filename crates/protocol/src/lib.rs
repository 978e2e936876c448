//! The Taurus wire protocol: what a compute front end speaks to its
//! clients.
//!
//! The paper's architecture exists to serve many concurrent clients
//! from shared storage; this crate is the client-facing half of that
//! contract, deliberately engine-free: it depends only on
//! `taurus-common` (values, batches, errors, the byte codec) so thin
//! clients never link the storage engine.
//!
//! ## Frame layout
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! u32 LE  frame length (bytes after this prefix; includes ver+opcode)
//! u8      protocol version (PROTOCOL_VERSION)
//! u8      opcode
//! ...     opcode-specific payload
//! ```
//!
//! The length prefix is capped at [`MAX_FRAME`] so a corrupt or hostile
//! peer cannot make the receiver allocate unboundedly. Result rows
//! travel as [`Opcode::RowBatch`] frames encoded *straight from* the
//! executor's [`taurus_common::RowBatch`] — one frame per batch, no
//! per-row rematerialization on the serving path — and a stream is
//! terminated by exactly one [`Opcode::EndOfStream`] (with row/batch
//! counts and the id of the node that served it) or one
//! [`Opcode::Error`] frame.
//!
//! Errors cross the wire as stable numeric codes plus the client-safe
//! *message* of the [`taurus_common::Error`] variant (see [`errcode`]):
//! never `Debug` renderings, and the code table is an exhaustive match
//! so adding an error variant fails this crate's build instead of a
//! deployed client.

pub mod errcode;
pub mod message;

pub use errcode::{decode_error, encode_error, error_code, is_retryable};
pub use message::{
    decode_message, encode_row_batch, read_frame, write_frame, DmlRequest, Message, Opcode,
    QueryRequest, MASTER_NODE, MAX_FRAME, PROTOCOL_VERSION,
};
