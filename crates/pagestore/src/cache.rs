//! The NDP descriptor cache (§IV-D1).
//!
//! "Initial performance tests revealed that NDP descriptor decoding caused
//! a bottleneck in Page Store CPU — a few milliseconds per decoding on
//! average … Instead of decoding descriptors and converting LLVM bitcode
//! for each NDP request, the first request caches the result which is
//! reused subsequently. (The cache key is computed by applying a hash
//! function to the NDP descriptor fields.) This optimization dramatically
//! reduced the average decoding time to less than 5 microseconds."
//!
//! Here the expensive step is [`CachedDescriptor::prepare`]: descriptor
//! decode + IR validation + VM compilation (the predicate and every
//! aggregate input program) and the byte-level projection and
//! aggregate-input plans, all against the record layout. The
//! cache maps `fnv64(descriptor bytes)` to the prepared entry; collisions
//! are detected by byte comparison and treated as misses.
//!
//! "Descriptor bytes" are the stream's `DESC` section alone. The key set a
//! batched key access appends is different in every request: inside the
//! hashed bytes it would make every request a miss and every miss an
//! entry. The read view's low watermark *is* inside them, so a scan under
//! a new view is a new entry on every store it touches; the map is
//! bounded at [`DESCRIPTOR_CACHE_ENTRIES`] and the entry used longest ago
//! makes room.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use taurus_common::{Metrics, Result};
use taurus_expr::agg::AggInput;
use taurus_expr::descriptor::{fnv64, NdpDescriptor};
use taurus_expr::vm::CompiledPredicate;
use taurus_page::{DecodePlan, ProjectionPlan, RecordLayout};

use crate::plugin::GroupTable;

/// A descriptor after the expensive decode + JIT step, ready for record
/// processing: everything the plugin needs to work on record bytes is
/// resolved against the layout here, once.
pub struct CachedDescriptor {
    pub desc: NdpDescriptor,
    /// Layout of the source (full) leaf records.
    pub layout: RecordLayout,
    /// The key columns' positions in them, in key order: what a key-set
    /// request encodes of every record.
    pub key_positions: Vec<usize>,
    /// Layout of the records `survivor` writes when projection was
    /// requested: what the compute node reads them with.
    pub proj_layout: Option<RecordLayout>,
    /// Compiled predicate, if filtering was requested; it runs on the
    /// record's bytes.
    pub predicate: Option<CompiledPredicate>,
    /// How a survivor's bytes are written into the NDP page: the kept
    /// columns when projection was requested, the whole record otherwise.
    pub survivor: ProjectionPlan,
    /// How a fold reads each aggregate's input, in aggregate order (none
    /// without aggregation).
    pub agg_inputs: Vec<AggRead>,
    /// The columns of the [`AggRead::Col`] inputs, in their order: all a
    /// fold decodes of a record besides what programs read in place.
    pub agg_cols: DecodePlan,
    /// The raw bytes (collision detection + diagnostics).
    pub bytes: Vec<u8>,
    /// Aggregation tables of finished walks, for the next ones.
    pub(crate) group_tables: Mutex<Vec<GroupTable>>,
}

impl CachedDescriptor {
    /// The expensive path: decode, validate, and JIT-compile.
    pub fn prepare(bytes: &[u8]) -> Result<CachedDescriptor> {
        let desc = NdpDescriptor::decode(bytes)?;
        let layout = RecordLayout::new(desc.record_dtypes.clone());
        let keep: Option<Vec<usize>> = desc
            .projection
            .as_ref()
            .map(|keep| keep.iter().map(|&k| k as usize).collect());
        let proj_layout = keep.as_ref().map(|keep| layout.project(keep));
        let survivor = ProjectionPlan::new(&layout, keep.as_deref());
        // Descriptor column references are already record positions:
        // programs compile under the identity map.
        let identity: Vec<u16> = (0..layout.n_cols() as u16).collect();
        let compile = |bc: &[u8]| {
            let ir = taurus_expr::ir::IrProgram::decode_bitcode(bc)?;
            taurus_expr::compile::check_regs(&ir)?;
            CompiledPredicate::compile(&ir, &layout, &identity)
        };
        let predicate = desc.predicate_bitcode.as_deref().map(compile).transpose()?;
        let mut agg_cols = Vec::new();
        let agg_inputs = desc
            .aggregation
            .iter()
            .flat_map(|agg| &agg.specs)
            .map(|s| {
                Ok(match &s.input {
                    AggInput::Star => AggRead::Star,
                    AggInput::Col(c) => {
                        agg_cols.push(*c as usize);
                        AggRead::Col
                    }
                    AggInput::Program(bc) => AggRead::Program(compile(bc)?),
                })
            })
            .collect::<Result<_>>()?;
        let agg_cols = DecodePlan::new(&layout, &agg_cols);
        Ok(CachedDescriptor {
            key_positions: desc.key_positions.iter().map(|&p| p as usize).collect(),
            desc,
            layout,
            proj_layout,
            predicate,
            survivor,
            agg_inputs,
            agg_cols,
            bytes: bytes.to_vec(),
            group_tables: Mutex::new(Vec::new()),
        })
    }
}

/// How a fold reads one aggregate's input of a record.
pub enum AggRead {
    /// COUNT(*): the record counts.
    Star,
    /// The next column of [`CachedDescriptor::agg_cols`].
    Col,
    /// A program over the record's bytes, compiled once per descriptor.
    Program(CompiledPredicate),
}

/// The most prepared descriptors a Page Store keeps. A statement's table
/// accesses under one read view are a few dozen entries; the views of the
/// statements running at once multiply that by a handful.
pub const DESCRIPTOR_CACHE_ENTRIES: usize = 256;

/// The cached entries and the clock their uses are stamped with.
#[derive(Default)]
struct Entries {
    map: HashMap<u64, (Arc<CachedDescriptor>, u64)>,
    uses: u64,
}

impl Entries {
    /// The stamp of the use being made now.
    fn tick(&mut self) -> u64 {
        self.uses += 1;
        self.uses
    }
}

/// The per-Page-Store descriptor cache.
pub struct DescriptorCache {
    entries: Mutex<Entries>,
    metrics: Arc<Metrics>,
}

impl DescriptorCache {
    pub fn new(metrics: Arc<Metrics>) -> DescriptorCache {
        DescriptorCache {
            entries: Mutex::new(Entries::default()),
            metrics,
        }
    }

    /// Look up (or prepare and insert) the descriptor whose `DESC`
    /// section is `bytes`. Decode/compile time is metered into
    /// `ps_desc_decode_ns` so the §IV-D1 "ms → <5 µs" effect is
    /// measurable.
    pub fn get_or_prepare(&self, bytes: &[u8]) -> Result<Arc<CachedDescriptor>> {
        let key = fnv64(bytes);
        {
            let mut entries = self.entries.lock();
            let now = entries.tick();
            if let Some((hit, used)) = entries.map.get_mut(&key) {
                if hit.bytes == bytes {
                    *used = now;
                    self.metrics.add(|m| &m.ps_desc_cache_hits, 1);
                    return Ok(hit.clone());
                }
            }
        }
        self.metrics.add(|m| &m.ps_desc_cache_misses, 1);
        let t0 = std::time::Instant::now();
        let prepared = Arc::new(CachedDescriptor::prepare(bytes)?);
        self.metrics
            .add(|m| &m.ps_desc_decode_ns, t0.elapsed().as_nanos() as u64);
        let mut entries = self.entries.lock();
        if entries.map.len() >= DESCRIPTOR_CACHE_ENTRIES && !entries.map.contains_key(&key) {
            // A scan of the map, paid by a miss that has just spent far
            // longer preparing.
            let oldest = entries.map.iter().min_by_key(|(_, (_, used))| *used);
            if let Some(oldest) = oldest.map(|(k, _)| *k) {
                entries.map.remove(&oldest);
            }
        }
        let now = entries.tick();
        entries.map.insert(key, (prepared.clone(), now));
        Ok(prepared)
    }

    pub fn len(&self) -> usize {
        self.entries.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.entries.lock().map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::DataType;
    use taurus_expr::ast::Expr;
    use taurus_expr::compile::lower;

    fn descriptor_bytes(watermark: u64) -> Vec<u8> {
        let pred = lower(&Expr::gt(Expr::col(1), Expr::int(5))).unwrap();
        NdpDescriptor {
            index_id: 3,
            record_dtypes: vec![DataType::BigInt, DataType::Int],
            key_positions: vec![0],
            projection: Some(vec![0, 1]),
            predicate_bitcode: Some(pred.encode_bitcode().unwrap()),
            aggregation: None,
            low_watermark: watermark,
        }
        .encode()
    }

    #[test]
    fn second_lookup_hits() {
        let m = Metrics::shared();
        let c = DescriptorCache::new(m.clone());
        let bytes = descriptor_bytes(10);
        let a = c.get_or_prepare(&bytes).unwrap();
        let b = c.get_or_prepare(&bytes).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = m.snapshot();
        assert_eq!((s.ps_desc_cache_hits, s.ps_desc_cache_misses), (1, 1));
        assert!(s.ps_desc_decode_ns > 0);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn different_descriptors_get_distinct_entries() {
        let c = DescriptorCache::new(Metrics::shared());
        let a = c.get_or_prepare(&descriptor_bytes(10)).unwrap();
        let b = c.get_or_prepare(&descriptor_bytes(11)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(c.len(), 2);
    }

    /// Every read view has its own watermark, and the watermark is part
    /// of the hashed bytes: the map must not grow with the views a store
    /// has seen, and a descriptor in steady use must survive the churn.
    #[test]
    fn distinct_watermarks_leave_at_most_the_cap_and_a_reused_one_still_hits() {
        let m = Metrics::shared();
        let c = DescriptorCache::new(m.clone());
        let steady = descriptor_bytes(1_000_000);
        let first = c.get_or_prepare(&steady).unwrap();
        for watermark in 0..10_000 {
            c.get_or_prepare(&descriptor_bytes(watermark)).unwrap();
            if watermark % 100 == 0 {
                let again = c.get_or_prepare(&steady).unwrap();
                assert!(Arc::ptr_eq(&first, &again), "evicted at {watermark}");
            }
            assert!(c.len() <= DESCRIPTOR_CACHE_ENTRIES);
        }
        assert_eq!(c.len(), DESCRIPTOR_CACHE_ENTRIES);
        let s = m.snapshot();
        assert_eq!(s.ps_desc_cache_hits, 100);
        assert_eq!(s.ps_desc_cache_misses, 10_001);
    }

    #[test]
    fn prepared_entry_has_compiled_pieces() {
        let c = DescriptorCache::new(Metrics::shared());
        let cd = c.get_or_prepare(&descriptor_bytes(10)).unwrap();
        assert!(cd.predicate.is_some());
        assert!(cd.proj_layout.is_some());
        assert!(cd.agg_inputs.is_empty());
        assert_eq!(cd.layout.n_cols(), 2);
    }

    #[test]
    fn garbage_descriptor_is_error() {
        let c = DescriptorCache::new(Metrics::shared());
        assert!(c.get_or_prepare(b"not a descriptor").is_err());
    }
}
