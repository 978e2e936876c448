//! The Page Store NDP plugin framework and the InnoDB plugin (§IV-D, §V).
//!
//! "Because Page Stores are intended to support several frontend systems
//! … the NDP framework for Page Stores is DBMS-independent. DBMS-specific
//! shared libraries can be loaded as plugins … The Page Store NDP framework
//! accepts an NDP descriptor as a type-less byte stream, which an NDP
//! plugin interprets."
//!
//! The framework makes one call, [`NdpPlugin::run`], over a unit of NDP
//! work: one page, or a whole sub-batch when a scalar aggregate folds
//! across it. Each finished NDP page is handed back by index as it is
//! complete.
//!
//! [`InnodbNdpPlugin`] walks each page's record chain once and works on
//! record bytes throughout ("without row materialization", §V-B): a record
//! is parsed (bounds only), judged, and — if it survives — copied into the
//! NDP page in chain order. No record becomes a row of values.
//!
//! * when the request carries a **key set** (a lookup join's batched key
//!   access), a record whose key does not start with a listed key is
//!   dropped first of all, ambiguous or not (an in-place update never
//!   changes a key): the in-order chain is merged against the sorted keys,
//!   from a binary search for the page's first record, so no record pays
//!   for the length of the list;
//! * records with `trx_id >=` the descriptor watermark are **ambiguous**
//!   and pass through byte-identical, stored header and all (never
//!   projected — §V-A): on an NDP page, `Ordinary` means ambiguous;
//! * visible delete-marked records are skipped;
//! * when the request carries a **join filter** (a hash join's probe scan),
//!   a visible record whose key column is NULL or misses the filter is
//!   dropped. Only here, past the watermark: unlike a key-set key, the
//!   join column is not immutable, so an ambiguous record's bytes may hold
//!   a value its visible version does not have, and the SQL node rebuilds
//!   that version before the join judges it;
//! * visible records are filtered by the compiled predicate, which reads
//!   column images in place — only definite survivors are kept
//!   (`False`/`Unknown` rows are what the compute node would discard too);
//! * a survivor is written by the descriptor's
//!   [`ProjectionPlan`](taurus_page::ProjectionPlan) as an `NdpProjection`
//!   record: the 3-byte NDP header (no heap number or trx id: its
//!   visibility is settled here) over the kept columns' images, every
//!   column when the descriptor does not project — the bytes re-encoding
//!   its decoded values would give;
//! * with aggregation, survivors are folded into per-group state instead,
//!   each group's partial attached to its **last visible** record on the
//!   page (the paper's `((5,2), 9)` carrier convention: the carrier's own
//!   values are *not* in the payload — they reach the executor as a
//!   regular row). A page keeps a table of its groups ([`GroupTable`]),
//!   keyed on the group columns' images, of at most
//!   [`GROUP_TABLE_GROUPS`] groups: when it is full, the group updated
//!   longest ago goes out early as carrier + partial, so a page with many
//!   groups costs more records on the wire, never a wrong answer, and
//!   input grouped in index order (one group at a time) goes out exactly
//!   as a flush at every group change would send it. A fold runs each
//!   input, a bare column's too, as a typed program over the record's
//!   bytes into its state, building no `Value`
//!   ([`CachedDescriptor::agg_inputs`]); a program that errs fails the page, which then
//!   goes back raw. Records leave the page in chain order: each carrier
//!   where it sits, ambiguous records between them;
//! * with a pushed HAVING (only on a GROUP BY that is a prefix of the
//!   key, so groups come one after another), a group **complete** on its
//!   page is judged where it is folded: its key is neither the page's
//!   first record's nor its last record's, whatever their kind, and no
//!   ambiguous record carries it. When its outputs (group columns, then
//!   its states with the carrier folded in, finalized) do not make the
//!   HAVING `True`, neither carrier nor partial leaves the page. Every
//!   other group goes out as before, for the SQL node to merge and judge;
//! * with no GROUP BY, aggregation crosses pages *within one request*
//!   (§V-C case 2), the payload landing on the last page that has a
//!   visible row.

use std::sync::Arc;

use taurus_common::{Error, Result, Value};
use taurus_expr::agg::{encode_states, AggInput, AggState};
use taurus_expr::descriptor::{JoinFilterSection, KeySet, NdpAggSpec, Sections};
use taurus_expr::vm::TriBool;
use taurus_page::{NdpPageBuilder, Page, RecType, RecordView};

use crate::cache::CachedDescriptor;

/// Per-page statistics reported by the plugin.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct PluginStats {
    pub records_in: u64,
    /// Dropped for matching no key of the request's key set.
    pub records_key_filtered: u64,
    pub records_filtered: u64,
    pub records_aggregated: u64,
    pub ambiguous: u64,
    /// Visible records dropped by the request's join filter.
    pub records_join_filtered: u64,
    /// Groups complete on their page that the pushed HAVING dropped.
    pub groups_dropped_by_having: u64,
}

/// DBMS-specific NDP processing, loaded into the Page Store framework.
pub trait NdpPlugin: Send + Sync {
    /// Process `pages`, one NDP page for each, handed to `done` with the
    /// page's index as soon as it is complete. `sections` is what the
    /// request carries behind its descriptor. Pages stand alone unless
    /// the descriptor asks for a scalar aggregate, which folds across
    /// all of them (§V-C case 2).
    fn run(
        &self,
        cd: &CachedDescriptor,
        sections: &Sections,
        pages: &[Arc<Page>],
        done: &mut dyn FnMut(usize, Page),
    ) -> Result<PluginStats>;
}

/// The MySQL/InnoDB plugin.
pub struct InnodbNdpPlugin;

/// The most groups a page's [`GroupTable`] holds at once. Input grouped
/// in index order needs one; the optimizer pushes a hashed GROUP BY only
/// when it estimates at most this many groups a leaf (`ndp_post`), and a
/// page with more loses only compactness.
pub const GROUP_TABLE_GROUPS: usize = 16;

/// One record of a page's aggregated output, in chain order.
#[derive(Clone, Copy)]
enum Out {
    /// Bytes of [`GroupTable::bytes`] (an ambiguous record, or a carrier
    /// that went out early with its partial), written as they are.
    Bytes(usize, usize),
    /// The carrier of the group in this table slot, with its partial.
    Carrier(usize),
    /// A carrier a later survivor of its group took over: folded.
    Folded,
}

/// One group of a [`GroupTable`].
#[derive(Default)]
struct Group {
    /// The group columns' key ([`RecordView::group_key`]).
    key: Vec<u8>,
    states: Vec<AggState>,
    /// The group's last visible survivor so far: its bytes, and its
    /// entry in the output (of the held page when `held`).
    carrier: Vec<u8>,
    at: usize,
    held: bool,
    /// When the group last took a survivor (the table's clock).
    used: u64,
    /// The page may not hold all of the group: its first or last record,
    /// or an ambiguous record, carries the group's key. The SQL node may
    /// find more of it there, so a HAVING cannot judge it.
    open: bool,
}

/// The aggregation state of one walk: the groups of the page, its output
/// so far, and the scratch a fold and a payload need. Everything in it is
/// owned (records are copied in), so a descriptor keeps used tables for
/// the next walk and a page of aggregation allocates nothing of its own.
#[derive(Default)]
pub(crate) struct GroupTable {
    /// Group slots; the first `live` are in use.
    groups: Vec<Group>,
    live: usize,
    /// The slot that took the last survivor (looked at first).
    last: usize,
    clock: u64,
    out: Vec<Out>,
    /// The output of the page a scalar carrier is held on, and its index.
    held: Vec<Out>,
    held_page: Option<usize>,
    bytes: Vec<u8>,
    probe: Vec<u8>,
    payload: Vec<u8>,
    /// With a pushed HAVING: the group key of the page's first record and
    /// of its last ambiguous record (empty: none yet; a key is never
    /// empty), and the scratch a group's outputs are built in.
    first_key: Vec<u8>,
    ambiguous_key: Vec<u8>,
    final_states: Vec<AggState>,
    outputs: Vec<Value>,
}

/// The group columns' key of `rec` ([`RecordView::group_key`]), into
/// `out`.
fn group_key(rec: &RecordView<'_>, group_cols: &[u16], out: &mut Vec<u8>) {
    out.clear();
    rec.group_key(group_cols.iter().map(|&g| g as usize), out);
}

/// Fold `rec`, a record that stopped being its group's carrier, into
/// `states`.
fn fold(cd: &CachedDescriptor, states: &mut [AggState], rec: RecordView<'_>) -> Result<()> {
    for (st, input) in states.iter_mut().zip(&cd.agg_inputs) {
        match input {
            None => st.update(&Value::Int(1)),
            Some(p) => p.fold_record(&rec, st)?,
        }
    }
    Ok(())
}

impl GroupTable {
    /// Make a table taken from the pool ready for a walk.
    fn reset(&mut self) {
        self.live = 0;
        self.held_page = None;
        self.held.clear();
        self.out.clear();
        self.bytes.clear();
    }

    /// Start a page's output. The bytes of a held page stay.
    fn begin_page(&mut self) {
        self.out.clear();
        if self.held_page.is_none() {
            self.bytes.clear();
        }
        self.ambiguous_key.clear();
    }

    /// With a pushed HAVING, what completeness needs of every record of a
    /// page, of any kind: the first record's group, and the groups of
    /// ambiguous records, are open. Groups arrive in key order, so a
    /// group an ambiguous record belongs to is the live one with its key
    /// or the next one to start.
    fn note_record(
        &mut self,
        spec: &NdpAggSpec,
        rec: &RecordView<'_>,
        first: bool,
        ambiguous: bool,
    ) {
        if first {
            group_key(rec, &spec.group_cols, &mut self.first_key);
        }
        if ambiguous {
            group_key(rec, &spec.group_cols, &mut self.ambiguous_key);
            for g in &mut self.groups[..self.live] {
                g.open |= g.key == self.ambiguous_key;
            }
        }
    }

    /// Does group `slot`, once it is known whether it is open, go no
    /// further? With a pushed HAVING, a group that is not open is
    /// complete on its page: all of it that the SQL node will ever fold
    /// is in its states and its carrier. A complete group whose outputs
    /// (its group columns' values, then its states with the carrier
    /// folded in, finalized, as the SQL node's `Filter` sees them) do not
    /// make the HAVING `True` is dropped.
    fn fails_having(&mut self, cd: &CachedDescriptor, slot: usize) -> Result<bool> {
        let (Some(having), g) = (&cd.having, &self.groups[slot]) else {
            return Ok(false);
        };
        if g.open {
            return Ok(false);
        }
        let carrier = RecordView::parse(&g.carrier, &cd.layout)?;
        self.final_states.clone_from(&g.states);
        fold(cd, &mut self.final_states, carrier)?;
        self.outputs.clear();
        self.outputs.extend(cd.group_values.values(carrier));
        // A SUM past `i64` does not finalize: the group goes on, and the
        // SQL node fails the statement on it.
        for state in &self.final_states {
            match state.finalize() {
                Ok(v) => self.outputs.push(v),
                Err(_) => return Ok(false),
            }
        }
        Ok(!having.row_passes(&self.outputs)?)
    }

    /// Leave group `slot` out of the page: its carrier, like the records
    /// folded into it, goes nowhere.
    fn drop_group(&mut self, slot: usize, stats: &mut PluginStats) {
        self.out[self.groups[slot].at] = Out::Folded;
        stats.records_aggregated += 1;
        stats.groups_dropped_by_having += 1;
    }

    /// An ambiguous record: it goes out as it is, where it sits.
    fn push_raw(&mut self, raw: &[u8]) {
        let at = self.bytes.len();
        self.bytes.extend_from_slice(raw);
        self.out.push(Out::Bytes(at, self.bytes.len()));
    }

    /// The slot of the group `self.probe` keys, claimed (and its states
    /// fresh) if the group is new; a full table first sends its group
    /// updated longest ago out early.
    fn slot_of_probe(
        &mut self,
        cd: &CachedDescriptor,
        spec: &NdpAggSpec,
        stats: &mut PluginStats,
    ) -> Result<usize> {
        // A group-less aggregation has one group: no key to compare.
        let live = &self.groups[..self.live];
        let scalar = spec.group_cols.is_empty();
        if live
            .get(self.last)
            .is_some_and(|g| scalar || g.key == self.probe)
        {
            return Ok(self.last);
        }
        if let Some(g) = live.iter().position(|g| g.key == self.probe) {
            return Ok(g);
        }
        let slot = if self.live < GROUP_TABLE_GROUPS {
            if self.groups.len() == self.live {
                self.groups.push(Group::default());
            }
            self.live += 1;
            self.live - 1
        } else {
            let (oldest, _) = live
                .iter()
                .enumerate()
                .min_by_key(|(_, g)| g.used)
                // lint:allow(panic): a full table has groups
                .expect("a full table");
            self.write_out(cd, oldest, stats)?;
            oldest
        };
        let g = &mut self.groups[slot];
        g.key.clear();
        g.key.extend_from_slice(&self.probe);
        g.carrier.clear();
        g.held = false;
        g.open = g.key == self.first_key || g.key == self.ambiguous_key;
        g.states.clear();
        g.states.extend(spec.specs.iter().map(|s| {
            let dtype = match s.input {
                AggInput::Col(c) => Some(cd.layout.dtypes[c as usize]),
                // A program's result is typed by its first value.
                AggInput::Star | AggInput::Program(_) => None,
            };
            AggState::new(s.func, dtype)
        }));
        Ok(slot)
    }

    /// Send group `slot` out now, where its carrier sits: the carrier
    /// and its partial are written into `bytes`, and the slot is free.
    /// The group a new one evicts does not reach the page's last record:
    /// with a pushed HAVING, groups arrive in key order.
    fn write_out(
        &mut self,
        cd: &CachedDescriptor,
        slot: usize,
        stats: &mut PluginStats,
    ) -> Result<()> {
        if self.fails_having(cd, slot)? {
            self.drop_group(slot, stats);
            return Ok(());
        }
        let g = &self.groups[slot];
        self.payload.clear();
        encode_states(&g.states, &mut self.payload)?;
        let at = self.bytes.len();
        let carrier = RecordView::parse(&g.carrier, &cd.layout)?;
        cd.survivor
            .write(carrier, Some(&self.payload), &mut self.bytes)?;
        self.out[g.at] = Out::Bytes(at, self.bytes.len());
        stats.records_aggregated += 1;
        Ok(())
    }

    /// A visible survivor: it becomes its group's carrier, and the
    /// carrier it takes over is folded. When that one sat on a held page,
    /// the held page is complete and goes to `done`.
    #[allow(clippy::too_many_arguments)]
    fn survivor(
        &mut self,
        cd: &CachedDescriptor,
        spec: &NdpAggSpec,
        rec: RecordView<'_>,
        pages: &[Arc<Page>],
        stats: &mut PluginStats,
        done: &mut dyn FnMut(usize, Page),
    ) -> Result<()> {
        group_key(&rec, &spec.group_cols, &mut self.probe);
        let slot = self.slot_of_probe(cd, spec, stats)?;
        self.last = slot;
        self.clock += 1;
        let g = &mut self.groups[slot];
        g.used = self.clock;
        if !g.carrier.is_empty() {
            let old = RecordView::parse(&g.carrier, &cd.layout)?;
            fold(cd, &mut g.states, old)?;
            stats.records_aggregated += 1;
            if g.held {
                self.held[g.at] = Out::Folded;
            } else {
                self.out[g.at] = Out::Folded;
            }
        }
        g.carrier.clear();
        g.carrier.extend_from_slice(rec.raw());
        g.at = self.out.len();
        let was_held = std::mem::replace(&mut g.held, false);
        self.out.push(Out::Carrier(slot));
        if was_held {
            if let Some(idx) = self.held_page.take() {
                let held = std::mem::take(&mut self.held);
                let page = self.write_page(cd, &held, &pages[idx], stats)?;
                self.held = held;
                done(idx, page);
            }
        }
        Ok(())
    }

    /// The page `idx` is walked, `last` its last record. Unless
    /// `cross_page`, its groups end with it and it goes to `done`, less
    /// the groups a pushed HAVING drops (the last record's is open); with
    /// `cross_page` (one group) a page that holds the carrier waits for a
    /// later page to take it over or for the walk to end
    /// ([`GroupTable::finish`]).
    #[allow(clippy::too_many_arguments)]
    fn end_page(
        &mut self,
        cd: &CachedDescriptor,
        spec: &NdpAggSpec,
        pages: &[Arc<Page>],
        idx: usize,
        cross_page: bool,
        last: Option<RecordView<'_>>,
        stats: &mut PluginStats,
        done: &mut dyn FnMut(usize, Page),
    ) -> Result<()> {
        if let (Some(_), Some(last)) = (&cd.having, last) {
            group_key(&last, &spec.group_cols, &mut self.probe);
            for slot in 0..self.live {
                let g = &mut self.groups[slot];
                g.open |= g.key == self.probe;
                if self.fails_having(cd, slot)? {
                    self.drop_group(slot, stats);
                }
            }
        }
        let holds_carrier = self.groups[..self.live]
            .iter()
            .any(|g| !g.carrier.is_empty() && !g.held);
        if cross_page && holds_carrier {
            std::mem::swap(&mut self.out, &mut self.held);
            self.held_page = Some(idx);
            for g in &mut self.groups[..self.live] {
                g.held = true;
            }
            return Ok(());
        }
        let out = std::mem::take(&mut self.out);
        let page = self.write_page(cd, &out, &pages[idx], stats)?;
        self.out = out;
        if !cross_page {
            self.live = 0;
        }
        done(idx, page);
        Ok(())
    }

    /// The walk is over: a held page goes out with the partial.
    fn finish(
        &mut self,
        cd: &CachedDescriptor,
        pages: &[Arc<Page>],
        stats: &mut PluginStats,
        done: &mut dyn FnMut(usize, Page),
    ) -> Result<()> {
        if let Some(idx) = self.held_page.take() {
            let held = std::mem::take(&mut self.held);
            let page = self.write_page(cd, &held, &pages[idx], stats)?;
            self.held = held;
            done(idx, page);
        }
        Ok(())
    }

    /// The NDP page of `src` that `out` describes.
    fn write_page(
        &mut self,
        cd: &CachedDescriptor,
        out: &[Out],
        src: &Page,
        stats: &mut PluginStats,
    ) -> Result<Page> {
        let mut b = NdpPageBuilder::new(src);
        for &o in out {
            match o {
                Out::Bytes(start, end) => b.push_record(&self.bytes[start..end]),
                Out::Carrier(slot) => {
                    let g = &self.groups[slot];
                    self.payload.clear();
                    encode_states(&g.states, &mut self.payload)?;
                    let carrier = RecordView::parse(&g.carrier, &cd.layout)?;
                    b.push_projected(&cd.survivor, carrier, Some(&self.payload))?;
                    stats.records_aggregated += 1;
                }
                Out::Folded => {}
            }
        }
        Ok(b.finish(src.lsn()))
    }
}

/// A page's in-order record chain merged against a request's sorted key
/// set: which records extend a listed key.
struct KeyMerge<'a> {
    keys: &'a KeySet,
    /// The first listed key a record of the page can still match: found
    /// by binary search for the page's first record (`None` until then),
    /// advanced from there.
    at: Option<usize>,
    record_key: Vec<u8>,
}

impl<'a> KeyMerge<'a> {
    fn new(keys: &'a KeySet) -> KeyMerge<'a> {
        KeyMerge {
            keys,
            at: None,
            record_key: Vec::new(),
        }
    }

    /// Does the page's next record extend a listed key?
    fn admits(&mut self, rec: &RecordView<'_>, key_positions: &[usize]) -> bool {
        let keys = self.keys;
        // Once every listed key is behind, so is the need to encode one.
        if self.at == Some(keys.len()) {
            return false;
        }
        self.record_key.clear();
        rec.key_into(key_positions, &mut self.record_key);
        let mut at = match self.at {
            Some(at) => at,
            None => keys.seek(&self.record_key),
        };
        while at < keys.len() && keys.is_before(at, &self.record_key) {
            at += 1;
        }
        self.at = Some(at);
        at < keys.len() && self.record_key.starts_with(keys.get(at))
    }
}

/// Does a visible record pass the request's join filter? Its key column
/// is not NULL and its value may be a build key.
fn join_filter_admits(filter: &JoinFilterSection, rec: &RecordView<'_>) -> bool {
    if rec.is_null(filter.pos) {
        return false;
    }
    let image = rec.field_bytes(filter.pos);
    // The record was parsed against the layout the section was checked
    // against: the image is the column's 4 or 8 bytes.
    let key = match filter.width {
        4 => <[u8; 4]>::try_from(image).map(|b| i32::from_le_bytes(b) as i64),
        _ => <[u8; 8]>::try_from(image).map(i64::from_le_bytes),
    };
    match key {
        Ok(key) => filter.bloom.may_contain(key),
        Err(_) => true,
    }
}

impl NdpPlugin for InnodbNdpPlugin {
    /// The one record loop. Every page is walked once, in order, and gives
    /// one NDP page, handed to `done` as soon as it is complete.
    /// Aggregation state ends with each page unless the aggregate is
    /// scalar: then the page holding the carrier stays open until a later
    /// page takes the carrier over or the batch ends.
    fn run(
        &self,
        cd: &CachedDescriptor,
        sections: &Sections,
        pages: &[Arc<Page>],
        done: &mut dyn FnMut(usize, Page),
    ) -> Result<PluginStats> {
        let cross_page = cd.cross_page();
        let mut stats = PluginStats::default();
        let mut agg = cd.desc.aggregation.as_ref().map(|spec| {
            let mut table = cd.group_tables.lock().pop().unwrap_or_default();
            table.reset();
            (spec, table)
        });
        let mut merge = sections.keys.as_ref().map(KeyMerge::new);
        let having = cd.having.is_some();
        for (idx, page) in pages.iter().enumerate() {
            // With a pushed HAVING: the page's last record so far.
            let mut last = None;
            // Without aggregation survivors go straight into the page.
            let mut b = match &mut agg {
                None => Some(NdpPageBuilder::new(page)),
                Some((_, table)) => {
                    table.begin_page();
                    None
                }
            };
            if let Some(merge) = &mut merge {
                merge.at = None;
            }
            for rec in page.iter_chain() {
                let rec = RecordView::parse(rec?, &cd.layout)?;
                let rec_type = rec.rec_type()?;
                if rec_type != RecType::Ordinary {
                    return Err(Error::Corruption(format!(
                        "NDP source page contains non-ordinary record {rec_type:?}"
                    )));
                }
                stats.records_in += 1;
                if let (true, Some((spec, table))) = (having, &mut agg) {
                    let ambiguous = rec.trx_id() >= cd.desc.low_watermark;
                    table.note_record(spec, &rec, last.is_none(), ambiguous);
                    last = Some(rec);
                }
                if let Some(merge) = &mut merge {
                    if !merge.admits(&rec, &cd.key_positions) {
                        stats.records_key_filtered += 1;
                        continue;
                    }
                }
                if rec.trx_id() >= cd.desc.low_watermark {
                    stats.ambiguous += 1;
                    match (&mut b, &mut agg) {
                        (Some(b), _) => b.push_record(rec.raw()),
                        (None, Some((_, table))) => table.push_raw(rec.raw()),
                        (None, None) => {}
                    }
                    continue;
                }
                if rec.delete_mark() {
                    continue;
                }
                if let Some(filter) = &sections.join_filter {
                    if !join_filter_admits(filter, &rec) {
                        stats.records_join_filtered += 1;
                        continue;
                    }
                }
                if let Some(pred) = &cd.predicate {
                    if pred.eval_record(&rec)? != TriBool::True {
                        stats.records_filtered += 1;
                        continue;
                    }
                }
                match (&mut b, &mut agg) {
                    (Some(b), _) => b.push_projected(&cd.survivor, rec, None)?,
                    (None, Some((spec, table))) => {
                        table.survivor(cd, spec, rec, pages, &mut stats, done)?
                    }
                    (None, None) => {}
                }
            }
            match (b, &mut agg) {
                (Some(b), _) => done(idx, b.finish(page.lsn())),
                (None, Some((spec, table))) => {
                    table.end_page(cd, spec, pages, idx, cross_page, last, &mut stats, done)?
                }
                (None, None) => {}
            }
        }
        if let Some((_, mut table)) = agg {
            table.finish(cd, pages, &mut stats, done)?;
            cd.group_tables.lock().push(table);
        }
        Ok(stats)
    }
}
