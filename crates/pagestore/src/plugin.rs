//! The Page Store NDP plugin framework and the InnoDB plugin (§IV-D, §V).
//!
//! "Because Page Stores are intended to support several frontend systems
//! … the NDP framework for Page Stores is DBMS-independent. DBMS-specific
//! shared libraries can be loaded as plugins … The Page Store NDP framework
//! accepts an NDP descriptor as a type-less byte stream, which an NDP
//! plugin interprets."
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
//!   and pass through byte-identical (never projected — §V-A);
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
//!   [`ProjectionPlan`](taurus_page::ProjectionPlan): its own bytes when
//!   every column is kept, the kept columns' images otherwise — the bytes
//!   re-encoding its decoded values would give;
//! * with aggregation, survivors are folded into per-group state instead,
//!   the group's partial attached to its **last visible** record (the
//!   paper's `((5,2), 9)` carrier convention: the carrier's own values are
//!   *not* in the payload — they reach the executor as a regular row). The
//!   carrier candidate is held as a view into the source page, a fold
//!   decodes only the aggregate input columns, and a group change is
//!   detected on the group columns' images;
//! * with no GROUP BY, aggregation crosses pages *within one request*
//!   (§V-C case 2), the payload landing on the last page that has a
//!   visible row.

use std::sync::Arc;

use taurus_common::{Error, PageNo, Result, Value};
use taurus_expr::agg::{encode_states, AggState};
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
}

/// DBMS-specific NDP processing, loaded into the Page Store framework.
pub trait NdpPlugin: Send + Sync {
    fn name(&self) -> &'static str;

    /// Process one page independently (used when the request carries no
    /// cross-page aggregation, so pages can be handled by concurrent
    /// workers in any order). `sections` is what the request carries
    /// behind its descriptor.
    fn process_page(
        &self,
        cd: &CachedDescriptor,
        sections: &Sections,
        page: &Page,
    ) -> Result<(Page, PluginStats)>;

    /// Process a whole sub-batch sequentially with cross-page aggregation
    /// (scalar aggregates only, §V-C). One NDP page per input page, each
    /// with its page number, in the order they were completed.
    fn process_batch(
        &self,
        cd: &CachedDescriptor,
        sections: &Sections,
        pages: &[(PageNo, Arc<Page>)],
    ) -> Result<(Vec<(PageNo, Page)>, PluginStats)>;
}

/// The MySQL/InnoDB plugin.
pub struct InnodbNdpPlugin;

/// Aggregation state of one walk: the running group, its carrier
/// candidate and what must go out behind the carrier.
struct GroupAcc<'a> {
    cd: &'a CachedDescriptor,
    spec: &'a NdpAggSpec,
    states: Vec<AggState>,
    /// Group-column images of the running group (`has_key`), and the
    /// buffer the next record's are built in.
    key: Vec<u8>,
    probe: Vec<u8>,
    has_key: bool,
    /// The group's last visible survivor so far, in its source page.
    carrier: Option<RecordView<'a>>,
    /// Ambiguous records behind the carrier on the carrier's page: they
    /// go out once it is known whether the carrier does.
    trailing: Vec<&'a [u8]>,
}

impl<'a> GroupAcc<'a> {
    fn new(cd: &'a CachedDescriptor, spec: &'a NdpAggSpec) -> GroupAcc<'a> {
        let mut acc = GroupAcc {
            cd,
            spec,
            states: Vec::with_capacity(spec.specs.len()),
            key: Vec::new(),
            probe: Vec::new(),
            has_key: false,
            carrier: None,
            trailing: Vec::new(),
        };
        acc.reset_states();
        acc
    }

    fn reset_states(&mut self) {
        self.states.clear();
        self.states.extend(self.spec.specs.iter().map(|s| {
            let dt = s.col.map(|c| self.cd.layout.dtypes[c as usize]);
            AggState::new(s, dt)
        }));
    }

    /// Does `rec` start a new group? Compares the group columns' NULL
    /// flags and images with the running group's and makes `rec`'s the
    /// running ones. Never with no GROUP BY.
    fn starts_new_group(&mut self, rec: &RecordView<'_>) -> bool {
        if self.spec.group_cols.is_empty() {
            return false;
        }
        self.probe.clear();
        for &g in &self.spec.group_cols {
            let g = g as usize;
            if rec.is_null(g) {
                self.probe.push(0);
            } else {
                let image = rec.field_bytes(g);
                self.probe.push(1);
                self.probe
                    .extend_from_slice(&(image.len() as u16).to_le_bytes());
                self.probe.extend_from_slice(image);
            }
        }
        let changed = self.has_key && self.probe != self.key;
        std::mem::swap(&mut self.key, &mut self.probe);
        self.has_key = true;
        changed
    }

    /// Fold a record that stopped being the carrier into the states.
    fn fold(&mut self, rec: RecordView<'_>) {
        let mut inputs = self.cd.agg_inputs.values(rec);
        for (st, spec) in self.states.iter_mut().zip(&self.spec.specs) {
            match spec.col {
                // lint:allow(panic): the plan holds one column per aggregate with an input
                Some(_) => st.update(&inputs.next().expect("planned input")),
                None => st.update(&Value::Int(1)),
            }
        }
    }

    /// `rec` survived: it becomes the carrier. The previous one is folded
    /// and will not go out, so what trailed it goes out now, into `page`
    /// (the builder of the previous carrier's page).
    fn take_over(
        &mut self,
        rec: RecordView<'a>,
        page: &mut NdpPageBuilder,
        stats: &mut PluginStats,
    ) {
        if let Some(old) = self.carrier.replace(rec) {
            self.fold(old);
            stats.records_aggregated += 1;
        }
        for raw in self.trailing.drain(..) {
            page.push_record(raw);
        }
    }

    /// End the running group: its carrier goes out with the partial as
    /// payload, then what trailed it.
    fn flush(&mut self, page: &mut NdpPageBuilder, stats: &mut PluginStats) -> Result<()> {
        if let Some(carrier) = self.carrier.take() {
            let payload = encode_states(&self.states);
            page.push_projected(&self.cd.survivor, carrier, Some(&payload))?;
            stats.records_aggregated += 1;
            self.reset_states();
        }
        for raw in self.trailing.drain(..) {
            page.push_record(raw);
        }
        Ok(())
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

impl InnodbNdpPlugin {
    /// The one record loop behind both entry points. Every page is walked
    /// once, in order, and gives one NDP page, handed to `done` with the
    /// page's index as soon as it is complete. Aggregation state ends with
    /// each page unless `cross_page` (scalar aggregation over a batch): then
    /// the page holding the carrier stays open until a later page takes
    /// the carrier over or the batch ends.
    fn run(
        cd: &CachedDescriptor,
        sections: &Sections,
        pages: &[&Page],
        cross_page: bool,
        done: &mut dyn FnMut(usize, Page),
    ) -> Result<PluginStats> {
        let mut stats = PluginStats::default();
        let mut acc = cd
            .desc
            .aggregation
            .as_ref()
            .map(|spec| GroupAcc::new(cd, spec));
        // The carrier's page and its index, while a later page is walked.
        let mut held: Option<(usize, NdpPageBuilder)> = None;
        let mut offsets = Vec::new();
        let mut merge = sections.keys.as_ref().map(KeyMerge::new);
        for (idx, &page) in pages.iter().enumerate() {
            let mut b = NdpPageBuilder::new(page);
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
                if let Some(merge) = &mut merge {
                    if !merge.admits(&rec, &cd.key_positions) {
                        stats.records_key_filtered += 1;
                        continue;
                    }
                }
                if rec.trx_id() >= cd.desc.low_watermark {
                    stats.ambiguous += 1;
                    match &mut acc {
                        Some(acc) => {
                            if acc.starts_new_group(&rec) {
                                acc.flush(&mut b, &mut stats)?;
                            }
                            // Behind a carrier on this page it waits for
                            // the carrier's fate.
                            if acc.carrier.is_some() && held.is_none() {
                                acc.trailing.push(rec.raw());
                            } else {
                                b.push_record(rec.raw());
                            }
                        }
                        None => b.push_record(rec.raw()),
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
                    if pred.eval_record(&rec, &mut offsets)? != TriBool::True {
                        stats.records_filtered += 1;
                        continue;
                    }
                }
                match &mut acc {
                    Some(acc) => {
                        if acc.starts_new_group(&rec) {
                            acc.flush(&mut b, &mut stats)?;
                        }
                        match held.take() {
                            // The carrier moves here from an earlier
                            // page, which is now complete.
                            Some((held_idx, mut held_page)) => {
                                acc.take_over(rec, &mut held_page, &mut stats);
                                done(held_idx, held_page.finish(pages[held_idx].lsn()));
                            }
                            None => acc.take_over(rec, &mut b, &mut stats),
                        }
                    }
                    None => b.push_projected(&cd.survivor, rec, None)?,
                }
            }
            if let Some(acc) = &mut acc {
                if !cross_page {
                    // Groups do not span pages.
                    acc.flush(&mut b, &mut stats)?;
                    acc.has_key = false;
                } else if acc.carrier.is_some() && held.is_none() {
                    // The carrier is on this page: a later one may still
                    // take it over.
                    held = Some((idx, b));
                    continue;
                }
            }
            done(idx, b.finish(page.lsn()));
        }
        if let (Some((held_idx, mut held_page)), Some(acc)) = (held, &mut acc) {
            acc.flush(&mut held_page, &mut stats)?;
            done(held_idx, held_page.finish(pages[held_idx].lsn()));
        }
        Ok(stats)
    }
}

impl NdpPlugin for InnodbNdpPlugin {
    fn name(&self) -> &'static str {
        "innodb"
    }

    fn process_page(
        &self,
        cd: &CachedDescriptor,
        sections: &Sections,
        page: &Page,
    ) -> Result<(Page, PluginStats)> {
        let mut out = None;
        let stats = Self::run(cd, sections, &[page], false, &mut |_, ndp| out = Some(ndp))?;
        // lint:allow(panic): `run` gives one NDP page per input page
        Ok((out.expect("one page in, one page out"), stats))
    }

    fn process_batch(
        &self,
        cd: &CachedDescriptor,
        sections: &Sections,
        pages: &[(PageNo, Arc<Page>)],
    ) -> Result<(Vec<(PageNo, Page)>, PluginStats)> {
        let scalar = cd
            .desc
            .aggregation
            .as_ref()
            .is_some_and(|a| a.group_cols.is_empty());
        let sources: Vec<&Page> = pages.iter().map(|(_, p)| &**p).collect();
        let mut out = Vec::with_capacity(pages.len());
        let stats = Self::run(cd, sections, &sources, scalar, &mut |idx, ndp| {
            out.push((pages[idx].0, ndp))
        })?;
        Ok((out, stats))
    }
}
