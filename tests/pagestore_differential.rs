//! The Page Store plugin against what it replaced, byte for byte.
//!
//! The plugin works on record bytes: survivors are copied, carriers are
//! kept as bytes, aggregate inputs are decoded columns or IR programs run
//! over the record, output goes out in chain order. The oracle below is
//! the semantics in their plainest form: decode every record to values,
//! run aggregate inputs through the tree-walking evaluator, keep a page's
//! groups in a list keyed by their values, re-encode survivors with
//! `encode_record`, collect emissions with their chain position and sort.
//! For the NDP descriptor of every pushed scan of the 22 TPC-H statements
//! over every leaf of its table, and for synthetic pages built to hit
//! what TPC-H data never does (a watermark that splits the page, delete
//! marks, NULLs in kept and dropped columns and in group keys, stale
//! bytes under a NULL, varchars around the kept columns, groups that end
//! behind their carrier, groups interleaved on a page and spanning pages,
//! more groups on a page than its table holds, ambiguous records between
//! carriers, a scalar aggregate whose carrier moves to a later page), the
//! NDP pages are equal byte for byte and the statistics are equal.
//!
//! A request may carry a key set (a lookup join's batched key access): a
//! record whose key starts with no listed key is dropped before anything
//! else looks at it. The oracle says so in one line over decoded values;
//! the plugin merges the chain against the sorted set. Both run under no
//! key set, one key, every key, keys that fall between records, prefix
//! keys (a whole group, over page boundaries) and keys before and after
//! every record.
//!
//! A request may also carry a join filter (a hash join's probe scan): a
//! visible, live record whose key column is NULL or misses the Bloom
//! filter is dropped; an ambiguous one is not. The oracle tests the
//! decoded value, the plugin the column's image in place. Both run under
//! no filter, one key, every key, a key nothing has, a nullable column,
//! `Int` and `BigInt` columns, and a filter behind a key set.

use std::sync::Arc;

use taurus::btree::{ScanRange, TreeStore};
use taurus::common::schema::encode_key;
use taurus::common::{ClusterConfig, DataType, Date32, Dec, SpaceId, Value};
use taurus::expr::agg::{encode_states, AggFunc, AggInput, AggSpec, AggState};
use taurus::expr::ast::Expr;
use taurus::expr::compile::lower;
use taurus::expr::descriptor::{
    encode_join_filter, encode_key_set, JoinFilterSection, KeyBloom, KeySet, NdpAggSpec,
    NdpDescriptor, Sections,
};
use taurus::expr::eval::eval;
use taurus::expr::vm::TriBool;
use taurus::ndp::{build_descriptor, TaurusDb};
use taurus::optimizer::plan::{Plan, ScanNode};
use taurus::page::{encode_record, NdpPageBuilder, Page, RecType, RecordMeta, RecordView, NO_PAGE};
use taurus::pagestore::plugin::GROUP_TABLE_GROUPS;
use taurus::pagestore::{CachedDescriptor, InnodbNdpPlugin, NdpPlugin, PluginStats};
use taurus::prelude::Session;

/// The old plugin: every record becomes values, survivors are re-encoded,
/// emissions are sorted back into chain order. `inputs` are the
/// aggregates' inputs over record positions (`None` for COUNT(*)), run by
/// the tree-walking evaluator over the decoded record. Grouped, a page
/// stands alone and keeps at most [`GROUP_TABLE_GROUPS`] groups, the one
/// updated longest ago going out when a new one comes; `cross_page` is
/// `process_batch` on a scalar aggregate; otherwise every page stands
/// alone, as in `process_page`. With `listed` keys, a record whose key
/// extends none of them does not exist; with a join `filter`, a visible
/// live record whose key column's value the filter rules out does not
/// either.
fn oracle(
    cd: &CachedDescriptor,
    inputs: &[Option<Expr>],
    listed: Option<&[Vec<u8>]>,
    filter: Option<&JoinFilterSection>,
    pages: &[&Page],
    cross_page: bool,
) -> (Vec<Page>, PluginStats) {
    let agg = cd.desc.aggregation.as_ref();
    let new_states = || -> Vec<AggState> {
        let specs = agg.map_or(&[][..], |a| &a.specs[..]);
        specs
            .iter()
            .map(|s| {
                let dtype = match s.input {
                    AggInput::Col(c) => Some(cd.layout.dtypes[c as usize]),
                    _ => None,
                };
                AggState::new(s.func, dtype)
            })
            .collect()
    };
    let encode = |values: &[Value], rec: &RecordView<'_>, payload: Option<&[u8]>| -> Vec<u8> {
        let (layout, kept) = match (&cd.proj_layout, &cd.desc.projection) {
            (Some(pl), Some(keep)) => (
                pl,
                keep.iter().map(|&k| values[k as usize].clone()).collect(),
            ),
            _ => (&cd.layout, values.to_vec()),
        };
        let meta = RecordMeta {
            rec_type: match (payload, &cd.desc.projection) {
                (Some(_), _) => RecType::NdpAggregate,
                (None, Some(_)) => RecType::NdpProjection,
                (None, None) => RecType::Ordinary,
            },
            delete_mark: false,
            heap_no: rec.heap_no(),
            trx_id: rec.trx_id(),
        };
        let mut out = Vec::new();
        encode_record(layout, &kept, meta, payload, &mut out).unwrap();
        out
    };
    /// A group, its carrier (page, chain position, values, view) and
    /// when it last took a survivor.
    struct Group<'p> {
        key: Vec<Value>,
        states: Vec<AggState>,
        carrier: Option<(usize, usize, Vec<Value>, RecordView<'p>)>,
        used: u64,
    }
    let mut stats = PluginStats::default();
    let mut emitted: Vec<Vec<(usize, Vec<u8>)>> = vec![Vec::new(); pages.len()];
    let mut groups: Vec<Group<'_>> = Vec::new();
    let mut clock = 0u64;
    let mut offsets = Vec::new();
    let emit = |g: Group<'_>, emitted: &mut Vec<Vec<(usize, Vec<u8>)>>, stats: &mut PluginStats| {
        if let Some((pi, seq, values, rec)) = g.carrier {
            let mut payload = Vec::new();
            encode_states(&g.states, &mut payload);
            emitted[pi].push((seq, encode(&values, &rec, Some(&payload))));
            stats.records_aggregated += 1;
        }
    };
    for (pi, page) in pages.iter().enumerate() {
        for (seq, rec) in page.iter_chain().enumerate() {
            let rec = RecordView::parse(rec.unwrap(), &cd.layout).unwrap();
            stats.records_in += 1;
            if let Some(listed) = listed {
                let key = key_of(cd, &rec);
                if !listed.iter().any(|k| key.starts_with(k)) {
                    stats.records_key_filtered += 1;
                    continue;
                }
            }
            let visible = rec.trx_id() < cd.desc.low_watermark;
            if !visible {
                stats.ambiguous += 1;
                emitted[pi].push((seq, rec.raw().to_vec()));
                continue;
            }
            if rec.delete_mark() {
                continue;
            }
            if let Some(f) = filter {
                let admitted = match rec.values()[f.pos] {
                    Value::Int(key) => f.bloom.may_contain(key),
                    _ => false,
                };
                if !admitted {
                    stats.records_join_filtered += 1;
                    continue;
                }
            }
            if let Some(pred) = &cd.predicate {
                if pred.eval_record(&rec, &mut offsets).unwrap() != TriBool::True {
                    stats.records_filtered += 1;
                    continue;
                }
            }
            let values = rec.values();
            let Some(a) = agg else {
                emitted[pi].push((seq, encode(&values, &rec, None)));
                continue;
            };
            let key: Vec<Value> = a
                .group_cols
                .iter()
                .map(|&g| values[g as usize].clone())
                .collect();
            clock += 1;
            let gi = match groups.iter().position(|g| g.key == key) {
                Some(gi) => gi,
                None => {
                    if groups.len() == GROUP_TABLE_GROUPS {
                        let oldest = (0..groups.len()).min_by_key(|&i| groups[i].used).unwrap();
                        emit(groups.remove(oldest), &mut emitted, &mut stats);
                    }
                    groups.push(Group {
                        key,
                        states: new_states(),
                        carrier: None,
                        used: 0,
                    });
                    groups.len() - 1
                }
            };
            let g = &mut groups[gi];
            g.used = clock;
            if let Some((_, _, old, _)) = g.carrier.replace((pi, seq, values, rec)) {
                for (st, input) in g.states.iter_mut().zip(inputs) {
                    match input {
                        Some(e) => st.update(&eval(e, &old).unwrap()),
                        None => st.update(&Value::Int(1)),
                    }
                }
                stats.records_aggregated += 1;
            }
        }
        if !cross_page {
            for g in groups.drain(..) {
                emit(g, &mut emitted, &mut stats);
            }
        }
    }
    for g in groups.drain(..) {
        emit(g, &mut emitted, &mut stats);
    }
    let out = pages
        .iter()
        .zip(emitted)
        .map(|(src, mut items)| {
            items.sort_by_key(|(seq, _)| *seq);
            let mut b = NdpPageBuilder::new(src);
            for (_, bytes) in &items {
                b.push_record(bytes);
            }
            b.finish(src.lsn())
        })
        .collect();
    (out, stats)
}

/// The first `n` key columns of `rec`, encoded from its decoded values.
fn key_prefix(cd: &CachedDescriptor, rec: &RecordView<'_>, n: usize) -> Vec<u8> {
    let values = rec.values();
    let (key_values, dtypes): (Vec<Value>, Vec<DataType>) = cd.key_positions[..n]
        .iter()
        .map(|&p| (values[p].clone(), cd.layout.dtypes[p]))
        .unzip();
    encode_key(&key_values, &dtypes)
}

fn key_of(cd: &CachedDescriptor, rec: &RecordView<'_>) -> Vec<u8> {
    key_prefix(cd, rec, cd.key_positions.len())
}

/// `keys` sorted, without repeats, as a request would carry them.
fn key_set(mut keys: Vec<Vec<u8>>) -> (Vec<Vec<u8>>, KeySet) {
    keys.sort();
    keys.dedup();
    let mut stream = Vec::new();
    encode_key_set(keys.iter().map(Vec::as_slice), &mut stream);
    let (set, _) = KeySet::parse(&Arc::new(stream), 0).unwrap();
    (keys, set)
}

/// A join filter on record position `pos` over `keys`, through the wire
/// format as a probe scan sends it.
fn join_filter(cd: &CachedDescriptor, pos: usize, keys: &[i64]) -> JoinFilterSection {
    let mut bloom = KeyBloom::new(keys.len() * 10 / 64 + 1, 3);
    for &key in keys {
        bloom.insert(key);
    }
    let mut stream = Vec::new();
    encode_join_filter(pos as u16, &bloom, &mut stream);
    JoinFilterSection::parse(&stream, 0, &cd.layout.dtypes)
        .unwrap()
        .0
}

/// The distinct non-NULL values of the integer column at `pos` over
/// `pages`, ascending.
fn int_values(cd: &CachedDescriptor, pages: &[Arc<Page>], pos: usize) -> Vec<i64> {
    let mut values: Vec<i64> = pages
        .iter()
        .flat_map(|p| p.iter_chain())
        .filter_map(|rec| {
            RecordView::parse(rec.unwrap(), &cd.layout)
                .unwrap()
                .value(pos)
                .as_int()
                .ok()
        })
        .collect();
    values.sort_unstable();
    values.dedup();
    values
}

/// Key sets over `pages`, by name: what a chunk of probe keys can look
/// like from a leaf's point of view.
fn key_sets(cd: &CachedDescriptor, pages: &[Arc<Page>]) -> Vec<(&'static str, Vec<Vec<u8>>)> {
    let n_key_cols = cd.key_positions.len();
    let records: Vec<RecordView<'_>> = pages
        .iter()
        .flat_map(|p| p.iter_chain())
        .map(|rec| RecordView::parse(rec.unwrap(), &cd.layout).unwrap())
        .collect();
    let full: Vec<Vec<u8>> = records.iter().map(|r| key_of(cd, r)).collect();
    let groups: Vec<Vec<u8>> = records.iter().map(|r| key_prefix(cd, r, 1)).collect();
    let mut sets = vec![("every key", full.clone()), ("no key at all", Vec::new())];
    if let Some(middle) = full.get(full.len() / 2) {
        sets.push(("one key", vec![middle.clone()]));
        // A group's prefix with a byte no key part starts with sorts
        // behind the group's records and ahead of the next group's.
        let between = groups.iter().step_by(3).map(|g| [&g[..], &[0xFF]].concat());
        sets.push(("keys between records", between.collect()));
        sets.push((
            "keys before and after every record",
            vec![vec![0x00], vec![0xFF]],
        ));
    }
    if n_key_cols > 1 && !groups.is_empty() {
        sets.push(("every third group, by prefix", {
            let mut distinct = groups.clone();
            distinct.dedup();
            distinct.into_iter().step_by(3).collect()
        }));
        // Prefix keys and full keys together, never of one group.
        let mixed = records.iter().enumerate().filter_map(|(i, r)| {
            let g = groups[i][groups[i].len() - 1] % 3;
            match g {
                0 => Some(groups[i].clone()),
                1 if i % 2 == 0 => Some(key_of(cd, r)),
                _ => None,
            }
        });
        sets.push(("prefix keys among full keys", mixed.collect()));
    }
    sets
}

fn add(total: &mut PluginStats, page: &PluginStats) {
    total.records_in += page.records_in;
    total.records_key_filtered += page.records_key_filtered;
    total.records_filtered += page.records_filtered;
    total.records_aggregated += page.records_aggregated;
    total.ambiguous += page.ambiguous;
    total.records_join_filtered += page.records_join_filtered;
}

/// Both entry points against the oracle on `pages`, under the key set
/// `listed` and the join `filter` if there are any.
fn compare(
    cd: &CachedDescriptor,
    inputs: &[Option<Expr>],
    listed: Option<Vec<Vec<u8>>>,
    filter: Option<JoinFilterSection>,
    pages: &[Arc<Page>],
    what: &str,
) -> PluginStats {
    let (listed, keys) = listed.map(key_set).unzip();
    let listed = listed.as_deref();
    let sections = Sections {
        keys,
        join_filter: filter,
    };
    let filter = sections.join_filter.as_ref();
    let refs: Vec<&Page> = pages.iter().map(|p| &**p).collect();
    // Page by page.
    let mut total = PluginStats::default();
    for (i, page) in refs.iter().enumerate() {
        let (want, want_stats) = oracle(cd, inputs, listed, filter, &[page], false);
        let (got, got_stats) = InnodbNdpPlugin.process_page(cd, &sections, page).unwrap();
        assert_eq!(got_stats, want_stats, "{what}: page {i} statistics");
        assert!(got.bytes() == want[0].bytes(), "{what}: page {i}");
        got.verify_checksum().unwrap();
        add(&mut total, &got_stats);
    }
    // As one batch (cross-page when the aggregate is scalar).
    let scalar = cd
        .desc
        .aggregation
        .as_ref()
        .is_some_and(|a| a.group_cols.is_empty());
    let numbered: Vec<(u32, Arc<Page>)> = pages
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u32, p.clone()))
        .collect();
    let (want, want_stats) = oracle(cd, inputs, listed, filter, &refs, scalar);
    let (mut got, got_stats) = InnodbNdpPlugin
        .process_batch(cd, &sections, &numbered)
        .unwrap();
    assert_eq!(got_stats, want_stats, "{what}: batch statistics");
    got.sort_by_key(|(no, _)| *no);
    assert_eq!(got.len(), want.len(), "{what}: one NDP page per page");
    for ((no, got), want) in got.iter().zip(&want) {
        assert!(got.bytes() == want.bytes(), "{what}: batch page {no}");
    }
    total
}

fn for_each_scan(plan: &Plan, f: &mut impl FnMut(&ScanNode)) {
    match plan {
        Plan::Scan(s) => f(s),
        Plan::AggScan(a) => f(&a.scan),
        Plan::LookupJoin(j) => for_each_scan(&j.outer, f),
        Plan::HashJoin(j) => {
            for_each_scan(&j.left, f);
            for_each_scan(&j.right, f);
        }
        Plan::HashAgg(a) => for_each_scan(&a.input, f),
        Plan::Project(p) => for_each_scan(&p.input, f),
        Plan::Filter(p) => for_each_scan(&p.input, f),
        Plan::Sort(s) => for_each_scan(&s.input, f),
        Plan::Limit { input, .. } => for_each_scan(input, f),
        Plan::Exchange(e) => for_each_scan(&e.child, f),
    }
}

#[test]
fn every_tpch_descriptor_over_every_leaf_of_its_table() {
    // A pool far smaller than the data and a low gate, so the optimizer
    // pushes what it pushes in the benchmark.
    let mut cfg = ClusterConfig::default();
    cfg.buffer_pool_pages = 70;
    cfg.ndp.enabled = true;
    cfg.ndp.min_io_pages = 8;
    let db = TaurusDb::new(cfg);
    taurus::tpch::load(&db, 0.002, 42).unwrap();
    db.buffer_pool().clear();
    let session = Session::new(&db).with_ndp(true);
    let (mut descriptors, mut filtered, mut survivors) = (0, 0, 0);
    let (mut key_filtered, mut join_filtered) = (0, 0);
    let (mut aggregated, mut programs) = (0, 0);
    for (name, text) in taurus::sql::tpch_sql::all() {
        let taurus::sql::Statement::Select(select) = taurus::sql::parse(text).unwrap() else {
            panic!("{name} is a SELECT");
        };
        let plan = taurus::sql::bind(&session, &select).unwrap();
        for_each_scan(&plan, &mut |node| {
            let Some(decision) = &node.ndp else { return };
            let table = db.table(&node.table).unwrap();
            let index = table.index(node.index);
            let mut leaves = Vec::new();
            let mut page = index
                .tree
                .seek_leaf(index.store.as_ref(), &ScanRange::full())
                .unwrap()
                .unwrap();
            loop {
                let next = page.next();
                leaves.push(page);
                if next == NO_PAGE {
                    break;
                }
                page = index.store.read(next).unwrap();
            }
            // Everything visible, and a watermark inside the loaded rows'
            // transaction ids if they differ at all.
            let mut trx_ids: Vec<u64> = leaves
                .iter()
                .flat_map(|p| p.iter_chain())
                .map(|rec| RecordView::new(rec.unwrap(), &index.tree.leaf_layout).trx_id())
                .collect();
            trx_ids.sort_unstable();
            // The aggregates' inputs over record positions.
            let stored = index.tree.def.stored_cols();
            let inputs: Vec<Option<Expr>> = decision
                .choice
                .aggregation
                .iter()
                .flat_map(|a| &a.specs)
                .map(|s| {
                    let pos = |c| stored.iter().position(|&s| s == c).unwrap();
                    s.input.as_ref().map(|e| e.remap_columns(&pos))
                })
                .collect();
            aggregated += usize::from(!inputs.is_empty());
            programs += inputs
                .iter()
                .filter(|e| matches!(e, Some(e) if !matches!(e, Expr::Col(_))))
                .count();
            for watermark in [u64::MAX, trx_ids[trx_ids.len() / 2]] {
                let desc = build_descriptor(index, &decision.choice, watermark).unwrap();
                let cd = CachedDescriptor::prepare(&desc.encode()).unwrap();
                let what = format!("{name} {} watermark {watermark}", node.table);
                let stats = compare(&cd, &inputs, None, None, &leaves, &what);
                descriptors += 1;
                filtered += stats.records_filtered;
                survivors += stats.records_in - stats.records_filtered - stats.ambiguous;
                // What a lookup join into this table would send along.
                for (set, listed) in key_sets(&cd, &leaves) {
                    if matches!(set, "one key" | "prefix keys among full keys") {
                        let what = format!("{what}, {set}");
                        let stats = compare(&cd, &inputs, Some(listed), None, &leaves, &what);
                        key_filtered += stats.records_key_filtered;
                    }
                }
                // What a hash join's probe scan of this table would send
                // along: every seventh value of an integer column.
                if let Some(pos) = filter_column(&cd) {
                    let keys: Vec<i64> = int_values(&cd, &leaves, pos)
                        .into_iter()
                        .step_by(7)
                        .collect();
                    let filter = join_filter(&cd, pos, &keys);
                    let what = format!("{what}, join filter on {pos}");
                    let stats = compare(&cd, &inputs, None, Some(filter), &leaves, &what);
                    join_filtered += stats.records_join_filtered;
                }
            }
        });
    }
    assert!(descriptors >= 20, "pushed scans: {descriptors}");
    // Q1, Q6, Q18 and Listing 1's shapes aggregate; Q1's and Q6's inputs
    // are programs.
    assert!(
        aggregated >= 3 && programs >= 3,
        "{aggregated} aggregating scans, {programs} program inputs"
    );
    assert!(
        filtered > 10_000 && survivors > 10_000 && key_filtered > 10_000 && join_filtered > 10_000,
        "{filtered} / {survivors} / {key_filtered} / {join_filtered}"
    );
}

/// An integer column of the records, not the leading key column when
/// there is another: a join column of the table.
fn filter_column(cd: &CachedDescriptor) -> Option<usize> {
    let ints: Vec<usize> = (0..cd.layout.n_cols())
        .filter(|&p| matches!(cd.layout.dtypes[p], DataType::Int | DataType::BigInt))
        .collect();
    ints.iter()
        .copied()
        .find(|&p| Some(&p) != cd.key_positions.first())
        .or(ints.first().copied())
}

// --- synthetic pages ---------------------------------------------------------

/// xorshift64: all the randomness the synthetic pages need.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: i64) -> i64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as i64
    }

    fn chance(&mut self, percent: i64) -> bool {
        self.below(100) < percent
    }
}

const WATERMARK: u64 = 100;

/// (group key, varchar ahead of everything kept, second key, aggregate
/// input, CHAR, varchar between kept columns, date, double, nullable int)
fn dtypes() -> Vec<DataType> {
    vec![
        DataType::BigInt,
        DataType::Varchar(12),
        DataType::Int,
        DataType::Decimal {
            precision: 15,
            scale: 2,
        },
        DataType::Char(3),
        DataType::Varchar(8),
        DataType::Date,
        DataType::Double,
        DataType::Int,
    ]
}

/// An aggregate of a synthetic descriptor: its function and its input over
/// record positions (`None` for COUNT(*)).
type Agg = (AggFunc, Option<Expr>);

/// The prepared descriptor, and its aggregates' inputs for the oracle.
fn descriptor(
    projection: Option<Vec<u16>>,
    predicate: Option<&Expr>,
    aggregation: Option<(&[Agg], Vec<u16>)>,
) -> (CachedDescriptor, Vec<Option<Expr>>) {
    let inputs: Vec<Option<Expr>> = aggregation
        .iter()
        .flat_map(|(aggs, _)| aggs.iter().map(|(_, input)| input.clone()))
        .collect();
    let aggregation = aggregation.map(|(aggs, group_cols)| NdpAggSpec {
        specs: aggs
            .iter()
            .map(|(func, input)| AggSpec {
                func: *func,
                input: match input {
                    None => AggInput::Star,
                    Some(Expr::Col(c)) => AggInput::Col(*c as u16),
                    Some(e) => AggInput::Program(lower(e).unwrap().encode_bitcode().unwrap()),
                },
            })
            .collect(),
        group_cols,
    });
    let bytes = NdpDescriptor {
        index_id: 7,
        record_dtypes: dtypes(),
        key_positions: vec![0, 2],
        projection,
        predicate_bitcode: predicate.map(|e| lower(e).unwrap().encode_bitcode().unwrap()),
        aggregation,
        low_watermark: WATERMARK,
    }
    .encode();
    (CachedDescriptor::prepare(&bytes).unwrap(), inputs)
}

/// What a synthetic record is, besides its values.
#[derive(Clone, Copy)]
struct Fate {
    ambiguous: bool,
    deleted: bool,
}

fn page_of(page_no: u32, rows: &[(Vec<Value>, Fate)]) -> Arc<Page> {
    let layout = taurus::page::RecordLayout::new(dtypes());
    let mut page = Page::new_index(8192, SpaceId(1), page_no, 7, 0);
    for (values, fate) in rows {
        let meta = RecordMeta {
            delete_mark: fate.deleted,
            ..RecordMeta::ordinary(if fate.ambiguous { WATERMARK + 3 } else { 5 })
        };
        let mut bytes = Vec::new();
        encode_record(&layout, values, meta, None, &mut bytes).unwrap();
        // A NULL column's bytes are whatever was there before.
        let view = RecordView::new(&bytes, &layout);
        let stale: Vec<(usize, usize)> = (0..layout.n_cols())
            .filter(|&c| view.is_null(c))
            .map(|c| {
                let image = view.field_bytes(c);
                (
                    image.as_ptr() as usize - bytes.as_ptr() as usize,
                    image.len(),
                )
            })
            .collect();
        for (at, len) in stale {
            bytes[at..at + len].fill(0xEE);
        }
        page.append_record(&bytes).unwrap();
    }
    page.set_lsn(40 + page_no as u64);
    Arc::new(page)
}

fn random_row(rng: &mut XorShift, group: i64, k: i64) -> Vec<Value> {
    let maybe = |rng: &mut XorShift, v: Value| if rng.chance(20) { Value::Null } else { v };
    let word = |rng: &mut XorShift, max: i64| -> Value {
        let len = rng.below(max + 1);
        Value::str(
            (0..len)
                .map(|_| (b'a' + rng.below(4) as u8) as char)
                .collect::<String>(),
        )
    };
    vec![
        Value::Int(group),
        word(rng, 12),
        Value::Int(k),
        {
            let v = Value::Decimal(Dec::new(rng.below(1000) as i128 - 500, 2));
            maybe(rng, v)
        },
        {
            let v = word(rng, 3);
            let v = Value::str(v.as_str().unwrap().trim_end_matches(' '));
            maybe(rng, v)
        },
        {
            let v = word(rng, 8);
            maybe(rng, v)
        },
        {
            let v = Value::Date(Date32(9000 + rng.below(400) as i32));
            maybe(rng, v)
        },
        Value::Double((rng.below(80) - 40) as f64 / 4.0),
        {
            let v = Value::Int(rng.below(50) - 10);
            maybe(rng, v)
        },
    ]
}

/// Pages of `per_page` records in key order, a few records per group,
/// groups free to continue on the next page.
fn random_pages(
    rng: &mut XorShift,
    n_pages: usize,
    per_page: usize,
    fate: &mut dyn FnMut(&mut XorShift, usize, usize) -> Fate,
) -> Vec<Arc<Page>> {
    let (mut group, mut k) = (0i64, 0i64);
    (0..n_pages)
        .map(|p| {
            let rows: Vec<(Vec<Value>, Fate)> = (0..per_page)
                .map(|i| {
                    if rng.chance(30) {
                        group += 1;
                    }
                    k += 1;
                    (random_row(rng, group, k), fate(rng, p, i))
                })
                .collect();
            page_of(p as u32, &rows)
        })
        .collect()
}

#[allow(clippy::type_complexity)]
fn descriptors() -> Vec<(&'static str, (CachedDescriptor, Vec<Option<Expr>>))> {
    let dec = |s: &str| Expr::dec(s);
    // NULL inputs make it UNKNOWN, which drops the record like FALSE.
    let pred = Expr::or(vec![
        Expr::gt(Expr::col(3), dec("0.50")),
        Expr::and(vec![
            Expr::ge(Expr::col(6), Expr::date("1994-10-01")),
            Expr::like(Expr::col(5), "a%"),
        ]),
    ]);
    let col = |c| Some(Expr::col(c));
    let sums: &[Agg] = &[
        (AggFunc::Sum, col(3)),
        (AggFunc::CountStar, None),
        (AggFunc::Count, col(6)),
        (AggFunc::Min, col(7)),
        (AggFunc::Max, col(4)),
    ];
    // Programs over a decimal and a nullable int, a date, a double: NULL
    // inputs, decimal scales, date and double arithmetic.
    let programs: &[Agg] = &[
        (AggFunc::Sum, Some(Expr::mul(Expr::col(3), Expr::col(8)))),
        (
            AggFunc::Sum,
            Some(Expr::mul(
                Expr::col(3),
                Expr::sub(Expr::int(1), Expr::col(3)),
            )),
        ),
        (AggFunc::Count, Some(Expr::add(Expr::col(3), Expr::col(3)))),
        (AggFunc::Max, Some(Expr::add(Expr::col(6), Expr::int(30)))),
        (AggFunc::Min, Some(Expr::mul(Expr::col(7), Expr::int(2)))),
        (AggFunc::Sum, Some(Expr::sub(Expr::col(7), Expr::col(8)))),
        (AggFunc::CountStar, None),
    ];
    let few_groups = Expr::lt(Expr::col(8), Expr::int(0));
    vec![
        ("filter only", descriptor(None, Some(&pred), None)),
        ("project", descriptor(Some(vec![0, 2, 3, 5]), None, None)),
        (
            "filter + project fixed columns",
            descriptor(Some(vec![0, 2, 3, 4, 6, 7]), Some(&pred), None),
        ),
        (
            "filter + project around the varchars",
            descriptor(Some(vec![0, 1, 2, 5, 7]), Some(&pred), None),
        ),
        (
            "project every column",
            descriptor(Some((0..9).collect()), Some(&pred), None),
        ),
        (
            "grouped aggregate",
            descriptor(None, None, Some((sums, vec![0]))),
        ),
        (
            "grouped aggregate, filtered and projected",
            descriptor(
                Some(vec![0, 2, 3, 4, 6, 7]),
                Some(&pred),
                Some((sums, vec![0])),
            ),
        ),
        (
            "aggregate grouped by the whole key",
            descriptor(Some(vec![0, 2, 3, 4, 6, 7]), None, Some((sums, vec![0, 2]))),
        ),
        (
            "scalar aggregate",
            descriptor(None, None, Some((sums, vec![]))),
        ),
        (
            "scalar aggregate, filtered and projected",
            descriptor(
                Some(vec![0, 2, 3, 4, 5, 6, 7]),
                Some(&pred),
                Some((sums, vec![])),
            ),
        ),
        (
            "program inputs, grouped by the key prefix",
            descriptor(
                Some(vec![0, 2, 3, 6, 7, 8]),
                None,
                Some((programs, vec![0])),
            ),
        ),
        (
            "program inputs, scalar",
            descriptor(None, Some(&pred), Some((programs, vec![]))),
        ),
        // Off the key: a page's groups interleave, and come and go
        // through its table.
        (
            "hashed on a nullable int: NULL keys, more groups than the table",
            descriptor(None, None, Some((programs, vec![8]))),
        ),
        (
            "hashed on a nullable int, filtered to fewer groups than the table",
            descriptor(
                Some(vec![0, 2, 3, 6, 7, 8]),
                Some(&few_groups),
                Some((programs, vec![8])),
            ),
        ),
        (
            "hashed on a CHAR and a date",
            descriptor(None, Some(&pred), Some((sums, vec![4, 6]))),
        ),
        (
            "hashed on the key reversed: a group a record",
            descriptor(Some(vec![0, 2, 3, 4, 6, 7]), None, Some((sums, vec![2, 0]))),
        ),
    ]
}

#[test]
fn synthetic_pages_match_the_oracle() {
    let mut rng = XorShift(0x5EED);
    let live = Fate {
        ambiguous: false,
        deleted: false,
    };
    let mut inputs: Vec<(&str, Vec<Arc<Page>>)> = Vec::new();
    // The watermark splits every page at random; some records are
    // delete-marked, on either side of it.
    for _ in 0..12 {
        inputs.push((
            "random fates",
            random_pages(&mut rng, 4, 24, &mut |rng, _, _| Fate {
                ambiguous: rng.chance(30),
                deleted: rng.chance(15),
            }),
        ));
    }
    // Ambiguous records before, between and after the survivors.
    inputs.push((
        "ambiguous around survivors",
        random_pages(&mut rng, 2, 12, &mut |_, _, i| Fate {
            ambiguous: matches!(i, 0 | 1 | 5 | 6 | 10 | 11),
            ..live
        }),
    ));
    // Every page ends in ambiguous records: whatever group is running
    // there has them behind its carrier.
    inputs.push((
        "ambiguous tails",
        random_pages(&mut rng, 3, 16, &mut |_, _, i| Fate {
            ambiguous: i >= 12,
            ..live
        }),
    ));
    // Nothing visible on the middle pages, nothing at all on the last but
    // one: a scalar carrier has to wait on page 0, then moves to page 4.
    inputs.push((
        "carrier moves to a later page",
        random_pages(&mut rng, 5, 10, &mut |_, p, i| Fate {
            ambiguous: matches!(p, 1 | 2) || (p == 0 && i >= 7),
            deleted: p == 3,
        }),
    ));
    // Only ambiguous records anywhere; and nothing but deleted ones.
    inputs.push((
        "all ambiguous",
        random_pages(&mut rng, 2, 8, &mut |_, _, _| Fate {
            ambiguous: true,
            ..live
        }),
    ));
    inputs.push((
        "all deleted",
        random_pages(&mut rng, 2, 8, &mut |_, _, _| Fate {
            deleted: true,
            ..live
        }),
    ));
    inputs.push(("an empty page", vec![page_of(0, &[])]));

    let mut total = PluginStats::default();
    for (name, (cd, aggs)) in descriptors() {
        for (input, pages) in &inputs {
            let stats = compare(&cd, &aggs, None, None, pages, &format!("{name}, {input}"));
            add(&mut total, &stats);
            for (set, listed) in key_sets(&cd, pages) {
                let what = format!("{name}, {input}, {set}");
                let stats = compare(&cd, &aggs, Some(listed), None, pages, &what);
                add(&mut total, &stats);
            }
            for (set, listed, filter) in join_filters(&cd, pages) {
                let what = format!("{name}, {input}, join filter: {set}");
                let stats = compare(&cd, &aggs, listed, Some(filter), pages, &what);
                add(&mut total, &stats);
            }
        }
    }
    // Every fate was exercised.
    assert!(total.records_in > 10_000, "{total:?}");
    assert!(total.records_filtered > 500, "{total:?}");
    assert!(total.records_aggregated > 1_000, "{total:?}");
    assert!(total.ambiguous > 2_000, "{total:?}");
    assert!(total.records_key_filtered > 10_000, "{total:?}");
    assert!(total.records_join_filtered > 10_000, "{total:?}");
}

/// Join filters over synthetic `pages`, by name, some behind a key set:
/// on the `Int` second key and the `BigInt` group key, and on the
/// nullable `Int` column.
#[allow(clippy::type_complexity)]
fn join_filters(
    cd: &CachedDescriptor,
    pages: &[Arc<Page>],
) -> Vec<(&'static str, Option<Vec<Vec<u8>>>, JoinFilterSection)> {
    let ks = int_values(cd, pages, 2);
    let groups = int_values(cd, pages, 0);
    let nullable = int_values(cd, pages, 8);
    let mut out = vec![
        ("a key nothing has", None, join_filter(cd, 2, &[-1])),
        ("every key", None, join_filter(cd, 2, &ks)),
        (
            "every third group",
            None,
            join_filter(
                cd,
                0,
                &groups.iter().copied().step_by(3).collect::<Vec<_>>(),
            ),
        ),
        (
            "half a nullable column's values",
            None,
            join_filter(
                cd,
                8,
                &nullable.iter().copied().step_by(2).collect::<Vec<_>>(),
            ),
        ),
    ];
    if let Some(&middle) = ks.get(ks.len() / 2) {
        out.push(("one key", None, join_filter(cd, 2, &[middle])));
        // Behind a key set of every record: both sections at work.
        let every = key_sets(cd, pages).swap_remove(0).1;
        let odd: Vec<i64> = ks.iter().copied().filter(|k| k % 2 == 1).collect();
        out.push((
            "odd keys, behind a key set",
            Some(every),
            join_filter(cd, 2, &odd),
        ));
    }
    out
}
