//! Expression engine: the compute-node interpreter and the Page Store
//! "LLVM" pipeline of the paper's §V-B.
//!
//! * [`ast`] — expression trees with the NDP allow-list check (§V-B1).
//! * [`eval`] — the classical tree-walking interpreter: the semantic
//!   reference the VM's tests compare against. Nothing runs it while a
//!   query runs.
//! * [`compile`] — lowering to linear register IR with short-circuit
//!   branches (Listing 4's shape).
//! * [`ir`] — the IR itself plus its "bitcode" serialization that ships
//!   inside NDP descriptors.
//! * [`vm`] — the record VM, the one engine that evaluates expressions at
//!   run time: IR × record layout → a program over raw record bytes (Page
//!   Stores, scans), or IR over decoded rows (the SQL node's operators).
//! * [`vector`] — the column-at-a-time twin of [`vm`]: the same IR
//!   extracted to straight-line form and run over whole batches with
//!   word-level three-valued bitmaps (a measured kernel that no query
//!   path runs; see the module docs).
//! * [`util`] — the pre-compiled utility-function library installed on
//!   every Page Store (§V-B2).
//! * [`agg`] — aggregate functions, partial states, payload serialization
//!   (§V-C).

pub mod agg;
pub mod ast;
pub mod compile;
pub mod descriptor;
pub mod eval;
pub mod ir;
pub mod util;
pub mod vector;
pub mod vm;

pub use agg::{decode_states, encode_states, AggFunc, AggInput, AggSpec, AggState};
pub use ast::{ArithOp, CmpOp, Expr};
pub use compile::lower;
pub use descriptor::{fnv64, NdpAggSpec, NdpDescriptor};
pub use ir::{IrInstr, IrProgram};
pub use vector::{BoolVec, VectorProgram};
pub use vm::{CompiledPredicate, RecordFilter, TriBool};
