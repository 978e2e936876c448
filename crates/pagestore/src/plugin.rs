//! The Page Store NDP plugin framework and the InnoDB plugin (§IV-D, §V).
//!
//! "Because Page Stores are intended to support several frontend systems
//! … the NDP framework for Page Stores is DBMS-independent. DBMS-specific
//! shared libraries can be loaded as plugins … The Page Store NDP framework
//! accepts an NDP descriptor as a type-less byte stream, which an NDP
//! plugin interprets."
//!
//! [`InnodbNdpPlugin`] implements the paper's record semantics:
//!
//! * records with `trx_id >=` the descriptor watermark are **ambiguous**
//!   and pass through byte-identical (never projected — §V-A);
//! * visible delete-marked records are skipped;
//! * visible records are filtered by the compiled predicate — only definite
//!   survivors are kept (`False`/`Unknown` rows are what the compute node
//!   would discard too);
//! * survivors are projected and/or folded into per-group aggregation
//!   state, with the group's partial sum attached to its **last visible**
//!   record (the paper's `((5,2), 9)` carrier convention: the carrier's own
//!   values are *not* in the payload — they reach the executor as a regular
//!   row);
//! * with no GROUP BY, aggregation crosses pages *within one request*
//!   (§V-C case 2), the payload landing on the last page that has a
//!   visible row.

use std::sync::Arc;

use taurus_common::{Error, PageNo, Result, TrxId, Value};
use taurus_expr::agg::AggState;
use taurus_expr::vm::TriBool;
use taurus_page::{encode_record, NdpPageBuilder, Page, RecType, RecordMeta, RecordView};

use crate::cache::CachedDescriptor;

/// Per-page statistics reported by the plugin.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct PluginStats {
    pub records_in: u64,
    pub records_filtered: u64,
    pub records_aggregated: u64,
    pub ambiguous: u64,
}

impl PluginStats {
    fn add(&mut self, o: &PluginStats) {
        self.records_in += o.records_in;
        self.records_filtered += o.records_filtered;
        self.records_aggregated += o.records_aggregated;
        self.ambiguous += o.ambiguous;
    }
}

/// DBMS-specific NDP processing, loaded into the Page Store framework.
pub trait NdpPlugin: Send + Sync {
    fn name(&self) -> &'static str;

    /// Process one page independently (used when the request carries no
    /// cross-page aggregation, so pages can be handled by concurrent
    /// workers in any order).
    fn process_page(&self, cd: &CachedDescriptor, page: &Page) -> Result<(Page, PluginStats)>;

    /// Process a whole sub-batch sequentially with cross-page aggregation
    /// (scalar aggregates only, §V-C).
    fn process_batch(
        &self,
        cd: &CachedDescriptor,
        pages: &[(PageNo, Arc<Page>)],
    ) -> Result<(Vec<(PageNo, Page)>, PluginStats)>;
}

/// The MySQL/InnoDB plugin.
pub struct InnodbNdpPlugin;

/// A survivor elected as the group's aggregation carrier.
struct Carrier {
    seq: usize,
    values: Vec<Value>,
    trx_id: TrxId,
    heap_no: u16,
}

impl InnodbNdpPlugin {
    fn is_visible(cd: &CachedDescriptor, trx_id: TrxId) -> bool {
        trx_id < cd.desc.low_watermark
    }

    /// Encode a surviving record for the NDP page.
    fn encode_survivor(
        cd: &CachedDescriptor,
        values: &[Value],
        trx_id: TrxId,
        heap_no: u16,
        payload: Option<&[u8]>,
    ) -> Result<Vec<u8>> {
        let (layout, kept): (_, Vec<Value>) = match (&cd.proj_layout, &cd.desc.projection) {
            (Some(pl), Some(keep)) => (
                pl,
                keep.iter().map(|&k| values[k as usize].clone()).collect(),
            ),
            _ => (&cd.layout, values.to_vec()),
        };
        let rec_type = match (payload.is_some(), cd.desc.projection.is_some()) {
            (true, _) => RecType::NdpAggregate,
            (false, true) => RecType::NdpProjection,
            // No projection, no aggregation — the record is only filtered,
            // and stays an ordinary record.
            (false, false) => RecType::Ordinary,
        };
        let meta = RecordMeta {
            rec_type,
            delete_mark: false,
            heap_no,
            trx_id,
        };
        let mut out = Vec::with_capacity(64);
        encode_record(layout, &kept, meta, payload, &mut out)?;
        Ok(out)
    }

    fn new_states(cd: &CachedDescriptor) -> Vec<AggState> {
        // lint:allow(panic): callers reach here only on descriptors with aggregation
        let agg = cd.desc.aggregation.as_ref().expect("aggregation requested");
        agg.specs
            .iter()
            .map(|s| {
                let dt = s.col.map(|c| cd.layout.dtypes[c as usize]);
                AggState::new(s, dt)
            })
            .collect()
    }

    /// Fold one row's aggregate inputs into the running states.
    fn fold(cd: &CachedDescriptor, states: &mut [AggState], values: &[Value]) {
        // lint:allow(panic): callers reach here only on descriptors with aggregation
        let agg = cd.desc.aggregation.as_ref().expect("aggregation requested");
        for (st, spec) in states.iter_mut().zip(&agg.specs) {
            match spec.col {
                Some(c) => st.update(&values[c as usize]),
                None => st.update(&Value::Int(1)),
            }
        }
    }

    fn group_key(cd: &CachedDescriptor, view: &RecordView<'_>) -> Vec<Value> {
        // lint:allow(panic): callers reach here only on descriptors with aggregation
        let agg = cd.desc.aggregation.as_ref().expect("aggregation requested");
        agg.group_cols
            .iter()
            .map(|&g| view.value(g as usize))
            .collect()
    }

    /// Column-at-a-time predicate pre-pass over one page: a single
    /// `eval_records` call replaces per-record VM dispatch — the same
    /// kernel (and speedup) as the executor's columnar Filter, applied to
    /// pushed-down predicates. `None` means no vector program or a lane
    /// error (eager evaluation can fault where the record-at-a-time VM
    /// short-circuits): the caller falls back to the scalar predicate,
    /// which remains authoritative.
    fn page_verdicts(cd: &CachedDescriptor, page: &Page) -> Option<Vec<bool>> {
        let vp = cd.vector.as_ref()?;
        // A damaged page fails the pre-pass; the record-at-a-time walk
        // that follows reports it.
        let views: Vec<RecordView<'_>> = page
            .iter_chain()
            .map(|rec| RecordView::parse(rec?, &cd.layout))
            .collect::<Result<_>>()
            .ok()?;
        let verdicts = vp.eval_records(&views).ok()?;
        Some((0..views.len()).map(|i| verdicts.is_true(i)).collect())
    }
}

/// Accumulates one page's emissions in sequence order.
struct PageEmitter {
    /// (seq, encoded record)
    items: Vec<(usize, Vec<u8>)>,
}

impl PageEmitter {
    fn new() -> PageEmitter {
        PageEmitter { items: Vec::new() }
    }

    fn emit(&mut self, seq: usize, bytes: Vec<u8>) {
        self.items.push((seq, bytes));
    }

    fn finish(mut self, src: &Page) -> Page {
        // Records were produced group-by-group; restore global order.
        self.items.sort_by_key(|(seq, _)| *seq);
        let mut b = NdpPageBuilder::new(src);
        for (_, bytes) in &self.items {
            b.push_record(bytes);
        }
        b.finish(src.lsn())
    }
}

/// Group-scoped working state for the per-page path.
struct GroupAcc {
    key: Option<Vec<Value>>,
    states: Vec<AggState>,
    carrier: Option<Carrier>,
    /// Ambiguous records of the current group (seq, raw bytes).
    ambig: Vec<(usize, Vec<u8>)>,
}

impl GroupAcc {
    fn flush(
        &mut self,
        cd: &CachedDescriptor,
        out: &mut PageEmitter,
        stats: &mut PluginStats,
    ) -> Result<()> {
        for (seq, bytes) in self.ambig.drain(..) {
            out.emit(seq, bytes);
        }
        if let Some(c) = self.carrier.take() {
            let payload = taurus_expr::agg::encode_states(&self.states);
            let bytes = InnodbNdpPlugin::encode_survivor(
                cd,
                &c.values,
                c.trx_id,
                c.heap_no,
                Some(&payload),
            )?;
            out.emit(c.seq, bytes);
            stats.records_aggregated += 1;
        }
        self.states = InnodbNdpPlugin::new_states(cd);
        self.key = None;
        Ok(())
    }
}

impl NdpPlugin for InnodbNdpPlugin {
    fn name(&self) -> &'static str {
        "innodb"
    }

    fn process_page(&self, cd: &CachedDescriptor, page: &Page) -> Result<(Page, PluginStats)> {
        let mut stats = PluginStats::default();
        let mut out = PageEmitter::new();
        let grouped = cd.desc.aggregation.is_some();
        let mut acc = GroupAcc {
            key: None,
            states: if grouped {
                Self::new_states(cd)
            } else {
                Vec::new()
            },
            carrier: None,
            ambig: Vec::new(),
        };
        let mut offsets = Vec::new();
        let verdicts = cd
            .predicate
            .as_ref()
            .and_then(|_| Self::page_verdicts(cd, page));
        for (seq, rec) in page.iter_chain().enumerate() {
            let view = RecordView::parse(rec?, &cd.layout)?;
            let rec_type = view.rec_type()?;
            if rec_type != RecType::Ordinary {
                return Err(Error::Corruption(format!(
                    "NDP source page contains non-ordinary record {rec_type:?}"
                )));
            }
            stats.records_in += 1;
            if !Self::is_visible(cd, view.trx_id()) {
                stats.ambiguous += 1;
                if grouped {
                    let key = Self::group_key(cd, &view);
                    if acc.key.is_some() && acc.key.as_ref() != Some(&key) {
                        acc.flush(cd, &mut out, &mut stats)?;
                    }
                    acc.key = Some(key);
                    acc.ambig.push((seq, view.raw().to_vec()));
                } else {
                    out.emit(seq, view.raw().to_vec());
                }
                continue;
            }
            if view.delete_mark() {
                continue;
            }
            if let Some(pred) = &cd.predicate {
                let survives = match &verdicts {
                    Some(v) => v[seq],
                    None => pred.eval_record(&view, &mut offsets)? == TriBool::True,
                };
                if !survives {
                    stats.records_filtered += 1;
                    continue;
                }
            }
            let values = view.values();
            if grouped {
                // lint:allow(panic): grouped=true implies the descriptor aggregates
                let agg = cd.desc.aggregation.as_ref().unwrap();
                let key: Vec<Value> = agg
                    .group_cols
                    .iter()
                    .map(|&g| values[g as usize].clone())
                    .collect();
                if acc.key.is_some() && acc.key.as_ref() != Some(&key) {
                    acc.flush(cd, &mut out, &mut stats)?;
                }
                acc.key = Some(key);
                if let Some(old) = acc.carrier.replace(Carrier {
                    seq,
                    values,
                    trx_id: view.trx_id(),
                    heap_no: view.heap_no(),
                }) {
                    Self::fold(cd, &mut acc.states, &old.values);
                    stats.records_aggregated += 1;
                }
            } else {
                let bytes =
                    Self::encode_survivor(cd, &values, view.trx_id(), view.heap_no(), None)?;
                out.emit(seq, bytes);
            }
        }
        if grouped {
            acc.flush(cd, &mut out, &mut stats)?;
        }
        Ok((out.finish(page), stats))
    }

    fn process_batch(
        &self,
        cd: &CachedDescriptor,
        pages: &[(PageNo, Arc<Page>)],
    ) -> Result<(Vec<(PageNo, Page)>, PluginStats)> {
        let scalar = cd
            .desc
            .aggregation
            .as_ref()
            .map(|a| a.group_cols.is_empty())
            .unwrap_or(false);
        if !scalar {
            // No cross-page opportunity: process pages independently.
            let mut stats = PluginStats::default();
            let mut results = Vec::with_capacity(pages.len());
            for (no, p) in pages {
                let (out, s) = self.process_page(cd, p)?;
                stats.add(&s);
                results.push((*no, out));
            }
            return Ok((results, stats));
        }

        let mut stats = PluginStats::default();
        let mut results = Vec::with_capacity(pages.len());
        let mut states = Self::new_states(cd);
        // The page (by index into `pages`) currently holding the carrier,
        // kept open until we know no later page takes the carrier over.
        struct Pending {
            page_idx: usize,
            ambig: Vec<(usize, Vec<u8>)>,
        }
        let mut carrier: Option<Carrier> = None;
        let mut pending: Option<Pending> = None;
        let mut offsets = Vec::new();

        for (idx, (_no, page)) in pages.iter().enumerate() {
            let mut ambig: Vec<(usize, Vec<u8>)> = Vec::new();
            let mut carrier_here = false;
            let verdicts = cd
                .predicate
                .as_ref()
                .and_then(|_| Self::page_verdicts(cd, page));
            for (seq, rec) in page.iter_chain().enumerate() {
                let view = RecordView::parse(rec?, &cd.layout)?;
                stats.records_in += 1;
                if !Self::is_visible(cd, view.trx_id()) {
                    stats.ambiguous += 1;
                    ambig.push((seq, view.raw().to_vec()));
                    continue;
                }
                if view.delete_mark() {
                    continue;
                }
                if let Some(pred) = &cd.predicate {
                    let survives = match &verdicts {
                        Some(v) => v[seq],
                        None => pred.eval_record(&view, &mut offsets)? == TriBool::True,
                    };
                    if !survives {
                        stats.records_filtered += 1;
                        continue;
                    }
                }
                // New carrier: fold the previous one into the states; if it
                // lived in an earlier (pending) page, that page can now be
                // finished without a carrier.
                if let Some(old) = carrier.replace(Carrier {
                    seq,
                    values: view.values(),
                    trx_id: view.trx_id(),
                    heap_no: view.heap_no(),
                }) {
                    Self::fold(cd, &mut states, &old.values);
                    stats.records_aggregated += 1;
                }
                if !carrier_here {
                    if let Some(p) = pending.take() {
                        let mut out = PageEmitter::new();
                        for (s, b) in p.ambig {
                            out.emit(s, b);
                        }
                        let (no, src) = &pages[p.page_idx];
                        results.push((*no, out.finish(src)));
                    }
                }
                carrier_here = true;
            }
            if carrier_here {
                debug_assert!(pending.is_none());
                pending = Some(Pending {
                    page_idx: idx,
                    ambig,
                });
            } else {
                // No visible survivor on this page: emit its ambiguous
                // records right away.
                let mut out = PageEmitter::new();
                for (s, b) in ambig {
                    out.emit(s, b);
                }
                results.push((pages[idx].0, out.finish(page)));
            }
        }
        if let Some(p) = pending.take() {
            let mut out = PageEmitter::new();
            for (s, b) in p.ambig {
                out.emit(s, b);
            }
            // lint:allow(panic): a pending ambiguous page is only parked after a carrier row
            let c = carrier.take().expect("pending page implies a carrier");
            let payload = taurus_expr::agg::encode_states(&states);
            let bytes = Self::encode_survivor(cd, &c.values, c.trx_id, c.heap_no, Some(&payload))?;
            out.emit(c.seq, bytes);
            stats.records_aggregated += 1;
            let (no, src) = &pages[p.page_idx];
            results.push((*no, out.finish(src)));
        }
        Ok((results, stats))
    }
}
