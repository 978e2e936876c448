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
//! decode + IR validation + VM compilation and the byte-level projection
//! and aggregate-input plans, all against the record layout. The
//! cache maps `fnv64(descriptor bytes)` to the prepared entry; collisions
//! are detected by byte comparison and treated as misses.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use taurus_common::{Metrics, Result};
use taurus_expr::descriptor::{fnv64, NdpDescriptor};
use taurus_expr::vm::CompiledPredicate;
use taurus_page::{DecodePlan, ProjectionPlan, RecordLayout};

/// A descriptor after the expensive decode + JIT step, ready for record
/// processing: everything the plugin needs to work on record bytes is
/// resolved against the layout here, once.
pub struct CachedDescriptor {
    pub desc: NdpDescriptor,
    /// Layout of the source (full) leaf records.
    pub layout: RecordLayout,
    /// Layout of the records `survivor` writes when projection was
    /// requested: what the compute node reads them with.
    pub proj_layout: Option<RecordLayout>,
    /// Compiled predicate, if filtering was requested; it runs on the
    /// record's bytes.
    pub predicate: Option<CompiledPredicate>,
    /// How a survivor's bytes are written into the NDP page: the kept
    /// columns when projection was requested, the whole record otherwise.
    pub survivor: ProjectionPlan,
    /// The aggregate input columns, in the order of the aggregates that
    /// have one (COUNT(*) has none; no columns without aggregation): all a
    /// fold decodes of a record.
    pub agg_inputs: DecodePlan,
    /// The raw bytes (collision detection + diagnostics).
    pub bytes: Vec<u8>,
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
        let predicate = match &desc.predicate_bitcode {
            Some(bc) => {
                let ir = taurus_expr::ir::IrProgram::decode_bitcode(bc)?;
                // Descriptor column references are already record
                // positions: identity map.
                let identity: Vec<u16> = (0..layout.n_cols() as u16).collect();
                Some(CompiledPredicate::compile(&ir, &layout, &identity)?)
            }
            None => None,
        };
        let agg_cols: Vec<usize> = desc
            .aggregation
            .iter()
            .flat_map(|agg| &agg.specs)
            .filter_map(|s| s.col.map(usize::from))
            .collect();
        let agg_inputs = DecodePlan::new(&layout, &agg_cols);
        Ok(CachedDescriptor {
            desc,
            layout,
            proj_layout,
            predicate,
            survivor,
            agg_inputs,
            bytes: bytes.to_vec(),
        })
    }
}

/// The per-Page-Store descriptor cache.
pub struct DescriptorCache {
    enabled: bool,
    map: Mutex<HashMap<u64, Arc<CachedDescriptor>>>,
    metrics: Arc<Metrics>,
}

impl DescriptorCache {
    pub fn new(enabled: bool, metrics: Arc<Metrics>) -> DescriptorCache {
        DescriptorCache {
            enabled,
            map: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// Look up (or prepare and insert) the descriptor. Decode/compile time
    /// is metered into `ps_desc_decode_ns` so the §IV-D1 "ms → <5 µs"
    /// effect is measurable.
    pub fn get_or_prepare(&self, bytes: &[u8]) -> Result<Arc<CachedDescriptor>> {
        let key = fnv64(bytes);
        if self.enabled {
            if let Some(hit) = self.map.lock().get(&key) {
                if hit.bytes == bytes {
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
        if self.enabled {
            self.map.lock().insert(key, prepared.clone());
        }
        Ok(prepared)
    }

    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        self.map.lock().clear();
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
            predicate_bitcode: Some(pred.encode_bitcode()),
            aggregation: None,
            low_watermark: watermark,
        }
        .encode()
    }

    #[test]
    fn second_lookup_hits() {
        let m = Metrics::shared();
        let c = DescriptorCache::new(true, m.clone());
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
        let c = DescriptorCache::new(true, Metrics::shared());
        let a = c.get_or_prepare(&descriptor_bytes(10)).unwrap();
        let b = c.get_or_prepare(&descriptor_bytes(11)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn disabled_cache_always_prepares() {
        let m = Metrics::shared();
        let c = DescriptorCache::new(false, m.clone());
        let bytes = descriptor_bytes(10);
        c.get_or_prepare(&bytes).unwrap();
        c.get_or_prepare(&bytes).unwrap();
        let s = m.snapshot();
        assert_eq!(s.ps_desc_cache_hits, 0);
        assert_eq!(s.ps_desc_cache_misses, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn prepared_entry_has_compiled_pieces() {
        let c = DescriptorCache::new(true, Metrics::shared());
        let cd = c.get_or_prepare(&descriptor_bytes(10)).unwrap();
        assert!(cd.predicate.is_some());
        assert!(cd.proj_layout.is_some());
        assert_eq!(cd.agg_inputs.n_cols(), 0);
        assert_eq!(cd.layout.n_cols(), 2);
    }

    #[test]
    fn garbage_descriptor_is_error() {
        let c = DescriptorCache::new(true, Metrics::shared());
        assert!(c.get_or_prepare(b"not a descriptor").is_err());
    }
}
