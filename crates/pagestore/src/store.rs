//! The Page Store server (§II, §IV-D).
//!
//! A Page Store hosts *slices* from multiple tenants, applies redo records
//! to keep pages up to date, and serves page reads — plain or NDP. Pages
//! are kept as LSN-stamped version chains so an NDP batch read can request
//! "those page versions matching the LSN value" captured under the B-tree
//! latches (§IV-C4), shielding the batch from concurrent tree changes.
//!
//! NDP processing runs on the dedicated bounded pool ([`crate::resource`]);
//! any page that cannot be processed (queue full, injected skip, plugin
//! error) is returned **raw** and the compute node finishes the job.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::bounded;
use parking_lot::RwLock;
use taurus_common::{Error, Lsn, Metrics, PageNo, Result, SliceId, TenantId};
use taurus_expr::descriptor::{NdpDescriptor, Sections};
use taurus_page::Page;

use crate::cache::{CachedDescriptor, DescriptorCache};
use crate::plugin::{InnodbNdpPlugin, NdpPlugin, PluginStats};
use crate::redo::RedoRecord;
use crate::resource::{Admission, NdpPool, SkipPolicy};

/// Brownout fault injection: how a store misbehaves. Faults apply to the
/// store's *read* entry points only — redo application keeps working so a
/// faulted store stays consistent and can be revived (like a partitioned
/// but healthy replica). Generalizes the old binary "poisoned" switch.
#[derive(Clone, Debug, Default)]
pub enum FaultPolicy {
    /// Healthy.
    #[default]
    None,
    /// Brownout: every read request pays this much added latency before
    /// being served (a slow disk / overloaded peer, not a dead one).
    Latency(Duration),
    /// Probabilistic errors: each read fails with this percentage
    /// probability (0–100), from a deterministic per-store stream.
    ErrorRate(u32),
    /// Reads fail until the addressed slice has applied redo up to this
    /// LSN — a store that is alive but too far behind to serve.
    ErrorUntilLsn(Lsn),
    /// Full poison: every read fails (a crashed store).
    Poison,
}

/// Page Store tuning knobs (subset of the cluster config).
#[derive(Clone, Debug)]
pub struct PageStoreConfig {
    pub versions_retained: usize,
    pub ndp_threads: usize,
    pub ndp_queue: usize,
    pub slice_pages: u32,
}

impl Default for PageStoreConfig {
    fn default() -> Self {
        PageStoreConfig {
            versions_retained: 8,
            ndp_threads: 4,
            ndp_queue: 64,
            slice_pages: 256,
        }
    }
}

struct VersionChain {
    /// (lsn, page) pairs, oldest front, newest back. `None` page = freed.
    versions: VecDeque<(Lsn, Option<Arc<Page>>)>,
}

struct Slice {
    pages: HashMap<PageNo, VersionChain>,
    applied_lsn: Lsn,
}

/// One NDP batch read bound for one slice of one Page Store.
#[derive(Clone)]
pub struct NdpBatchRequest {
    pub slice: SliceId,
    pub pages: Vec<PageNo>,
    /// Serve page versions as of this LSN.
    pub read_lsn: Lsn,
    /// The type-less descriptor byte stream (§IV-D): the `DESC` section
    /// and, for a batched key access, the key-set section behind it.
    pub descriptor: Arc<Vec<u8>>,
    /// Tenant the batch is billed to — drives fair admission and per-
    /// tenant quotas on the NDP pool.
    pub tenant: TenantId,
}

/// What came back for one page.
#[derive(Clone, Debug)]
pub enum PagePayload {
    /// NDP-processed (possibly the header-only empty marker).
    Ndp(Arc<Page>),
    /// Unprocessed page — NDP was skipped; InnoDB completes the work.
    Raw(Arc<Page>),
}

impl PagePayload {
    pub fn byte_len(&self) -> usize {
        match self {
            PagePayload::Ndp(p) | PagePayload::Raw(p) => p.byte_len(),
        }
    }
}

#[derive(Clone, Debug)]
pub struct PageResult {
    pub page_no: PageNo,
    pub payload: PagePayload,
}

/// A multi-tenant Page Store server.
pub struct PageStore {
    id: usize,
    cfg: PageStoreConfig,
    slices: RwLock<HashMap<SliceId, Slice>>,
    pool: Arc<NdpPool>,
    cache: DescriptorCache,
    plugin: Arc<dyn NdpPlugin>,
    metrics: Arc<Metrics>,
    skip_policy: RwLock<SkipPolicy>,
    skip_counter: AtomicU64,
    /// Fault injection: how (if at all) this store misbehaves on reads.
    fault: RwLock<FaultPolicy>,
    /// Deterministic stream for [`FaultPolicy::ErrorRate`].
    fault_rng: AtomicU64,
    /// Store-level shed switch: when set (operator override or sustained
    /// NDP queue saturation), whole batches degrade to raw page reads up
    /// front instead of racing per-page submissions against a full queue.
    force_shed: AtomicBool,
    /// Requests currently being served by this store and the high-water
    /// mark — per-request queue accounting so the compute/storage overlap
    /// of prefetching scans is observable on the storage side.
    active_requests: AtomicU64,
    active_requests_peak: AtomicU64,
}

/// RAII accounting for one in-flight request on one Page Store: charges
/// the store-local and cluster-wide in-flight gauges (+ peaks) for
/// exactly the serving duration, on every exit path.
struct RequestGuard<'a> {
    store: &'a PageStore,
}

impl<'a> RequestGuard<'a> {
    fn new(store: &'a PageStore) -> RequestGuard<'a> {
        let now = store.active_requests.fetch_add(1, Ordering::Relaxed) + 1;
        store.active_requests_peak.fetch_max(now, Ordering::Relaxed);
        store.metrics.gauge_inc(
            |m| &m.ps_requests_in_flight,
            |m| &m.ps_requests_in_flight_peak,
        );
        RequestGuard { store }
    }
}

impl Drop for RequestGuard<'_> {
    fn drop(&mut self) {
        self.store.active_requests.fetch_sub(1, Ordering::Relaxed);
        self.store.metrics.sub(|m| &m.ps_requests_in_flight, 1);
    }
}

/// Run a plugin call inside an NDP job. A panicking plugin becomes that
/// call's `Err`, which the serving paths already degrade to raw pages;
/// nothing the call borrowed is looked at again, so observing its state
/// mid-update is not a concern.
fn guarded<T>(call: impl FnOnce() -> Result<T>) -> Result<T> {
    catch_unwind(AssertUnwindSafe(call))
        .unwrap_or_else(|_| Err(Error::Internal("ndp plugin panicked".into())))
}

impl PageStore {
    pub fn new(id: usize, cfg: PageStoreConfig, metrics: Arc<Metrics>) -> Arc<PageStore> {
        Self::with_plugin(id, cfg, metrics, Arc::new(InnodbNdpPlugin))
    }

    /// [`PageStore::new`] with the plugin given; tests load a faulty one.
    fn with_plugin(
        id: usize,
        cfg: PageStoreConfig,
        metrics: Arc<Metrics>,
        plugin: Arc<dyn NdpPlugin>,
    ) -> Arc<PageStore> {
        Arc::new(PageStore {
            id,
            pool: NdpPool::new(cfg.ndp_threads, cfg.ndp_queue),
            cache: DescriptorCache::new(metrics.clone()),
            cfg,
            slices: RwLock::new(HashMap::new()),
            plugin,
            metrics,
            skip_policy: RwLock::new(SkipPolicy::None),
            skip_counter: AtomicU64::new(0),
            fault: RwLock::new(FaultPolicy::None),
            fault_rng: AtomicU64::new(0x9E3779B97F4A7C15 ^ id as u64),
            force_shed: AtomicBool::new(false),
            active_requests: AtomicU64::new(0),
            active_requests_peak: AtomicU64::new(0),
        })
    }

    pub fn id(&self) -> usize {
        self.id
    }

    /// Inject a deterministic skip pattern (tests, the `multi_tenant`
    /// example).
    pub fn set_skip_policy(&self, p: SkipPolicy) {
        *self.skip_policy.write() = p;
    }

    /// Install a fault policy (brownout injection). Takes effect on the
    /// next read; redo application is never faulted.
    pub fn set_fault(&self, f: FaultPolicy) {
        *self.fault.write() = f;
    }

    pub fn fault(&self) -> FaultPolicy {
        self.fault.read().clone()
    }

    /// Force store-level shed: every NDP batch degrades to raw page
    /// reads (the compute node does the work) without touching the pool.
    pub fn set_force_shed(&self, shed: bool) {
        self.force_shed.store(shed, Ordering::SeqCst);
    }

    pub fn force_shed(&self) -> bool {
        self.force_shed.load(Ordering::SeqCst)
    }

    /// Per-tenant NDP admission quota on this store's pool (0 = unlimited).
    pub fn set_ndp_tenant_quota(&self, quota: usize) {
        self.pool.set_tenant_quota(quota);
    }

    /// Test hook: hold this store's NDP workers until the guard drops
    /// ([`NdpPool::hold_workers`]).
    #[doc(hidden)]
    pub fn hold_ndp_workers(&self) -> crate::resource::WorkerHold {
        self.pool.hold_workers()
    }

    /// Evaluate the installed fault policy at a read entry point.
    /// `slice` contextualizes [`FaultPolicy::ErrorUntilLsn`]. Called once
    /// per request (not per page) so injected latency models one slow
    /// round trip, not a per-page stall.
    fn check_fault(&self, slice: SliceId) -> Result<()> {
        let fault = self.fault.read().clone();
        match fault {
            FaultPolicy::None => Ok(()),
            FaultPolicy::Latency(d) => {
                if !d.is_zero() {
                    std::thread::sleep(d);
                }
                Ok(())
            }
            FaultPolicy::ErrorRate(pct) => {
                // xorshift64: deterministic per-store error stream.
                let mut x = self.fault_rng.load(Ordering::Relaxed);
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.fault_rng.store(x, Ordering::Relaxed);
                if (x % 100) < pct.min(100) as u64 {
                    Err(Error::InvalidState(format!(
                        "page store {} injected fault (error rate {pct}%)",
                        self.id
                    )))
                } else {
                    Ok(())
                }
            }
            FaultPolicy::ErrorUntilLsn(bound) => {
                let applied = self.applied_lsn(slice);
                if applied < bound {
                    Err(Error::InvalidState(format!(
                        "page store {} browned out until lsn {bound} \
                         (slice applied lsn {applied})",
                        self.id
                    )))
                } else {
                    Ok(())
                }
            }
            FaultPolicy::Poison => Err(Error::InvalidState(format!(
                "page store {} is down (poisoned)",
                self.id
            ))),
        }
    }

    /// Requests currently being served by this store.
    pub fn active_requests(&self) -> u64 {
        self.active_requests.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently-served requests since startup.
    pub fn active_requests_peak(&self) -> u64 {
        self.active_requests_peak.load(Ordering::Relaxed)
    }

    pub fn create_slice(&self, slice: SliceId) {
        self.slices.write().entry(slice).or_insert_with(|| Slice {
            pages: HashMap::new(),
            applied_lsn: 0,
        });
    }

    pub fn applied_lsn(&self, slice: SliceId) -> Lsn {
        self.slices
            .read()
            .get(&slice)
            .map(|s| s.applied_lsn)
            .unwrap_or(0)
    }

    /// Apply a batch of redo records addressed to this store's slices.
    /// Records must arrive in LSN order (the SAL guarantees this).
    /// System records (replication metadata) are not page deltas and are
    /// skipped — the SAL does not distribute them, but a store fed a raw
    /// log batch must not corrupt itself on them either.
    pub fn apply_redo(&self, records: &[RedoRecord]) -> Result<()> {
        let mut slices = self.slices.write();
        for r in records {
            if r.body.is_system() {
                continue;
            }
            let sid = r.slice(self.cfg.slice_pages);
            let slice = slices.get_mut(&sid).ok_or_else(|| {
                Error::NotFound(format!("slice {sid:?} on page store {}", self.id))
            })?;
            let chain = slice
                .pages
                .entry(r.page_no)
                .or_insert_with(|| VersionChain {
                    versions: VecDeque::new(),
                });
            let mut page: Option<Page> = chain
                .versions
                .back()
                .and_then(|(_, p)| p.as_ref().map(|a| (**a).clone()));
            r.apply(&mut page)?;
            chain.versions.push_back((r.lsn, page.map(Arc::new)));
            while chain.versions.len() > self.cfg.versions_retained {
                chain.versions.pop_front();
            }
            if r.lsn > slice.applied_lsn {
                slice.applied_lsn = r.lsn;
            }
        }
        Ok(())
    }

    /// Read the newest page version with `lsn <= at_lsn` (or the newest
    /// overall when `at_lsn` is `None`).
    pub fn read_page(
        &self,
        slice: SliceId,
        page_no: PageNo,
        at_lsn: Option<Lsn>,
    ) -> Result<Arc<Page>> {
        self.check_fault(slice)?;
        self.read_page_inner(slice, page_no, at_lsn)
    }

    /// The read path proper, past fault injection — batch serving calls
    /// this per page after paying the fault check once per request.
    fn read_page_inner(
        &self,
        slice: SliceId,
        page_no: PageNo,
        at_lsn: Option<Lsn>,
    ) -> Result<Arc<Page>> {
        let slices = self.slices.read();
        let s = slices
            .get(&slice)
            .ok_or_else(|| Error::NotFound(format!("slice {slice:?}")))?;
        let chain = s
            .pages
            .get(&page_no)
            .ok_or_else(|| Error::NotFound(format!("page {page_no} in {slice:?}")))?;
        let pick = match at_lsn {
            None => chain.versions.back(),
            Some(lsn) => chain.versions.iter().rev().find(|(l, _)| *l <= lsn),
        };
        match pick {
            Some((_, Some(p))) => Ok(p.clone()),
            Some((_, None)) => Err(Error::NotFound(format!("page {page_no} freed"))),
            None => {
                // Version-pin miss: the chain exists but its oldest
                // retained version is newer than the pin — a lagging
                // replica asking for a snapshot this store no longer
                // holds. Name the retention horizon so the caller can
                // tell "too stale" from "never existed".
                let oldest = chain.versions.front().map(|(l, _)| *l).unwrap_or(0);
                Err(Error::InvalidState(format!(
                    "page {page_no}: no version at or before lsn {at_lsn:?} retained \
                     (oldest retained lsn {oldest}; reader pinned below the \
                     retention horizon)"
                )))
            }
        }
    }

    /// Version-pin check: can this store serve `page_no` exactly as of
    /// `lsn`? `false` once retention trimmed every version at or below
    /// the pin. Diagnostic surface for operators/tests probing whether a
    /// lagging reader's pin is still inside the retention horizon; the
    /// read path itself signals the same condition through
    /// [`PageStore::read_page`]'s trimmed-version error.
    pub fn has_version_at(&self, slice: SliceId, page_no: PageNo, lsn: Lsn) -> bool {
        let slices = self.slices.read();
        slices
            .get(&slice)
            .and_then(|s| s.pages.get(&page_no))
            .map(|c| c.versions.iter().any(|(l, _)| *l <= lsn))
            .unwrap_or(false)
    }

    /// Serve an NDP batch read (§IV-D). Every page comes back either NDP-
    /// processed or raw; the response preserves request order.
    pub fn serve_ndp_batch(&self, req: &NdpBatchRequest) -> Result<Vec<PageResult>> {
        self.check_fault(req.slice)?;
        let _req = RequestGuard::new(self);
        // The descriptor is cached by its `DESC` section; a key set and a
        // join filter are this request's alone, parsed and validated here.
        let desc_len = NdpDescriptor::section_len(&req.descriptor)?;
        let cd = self.cache.get_or_prepare(&req.descriptor[..desc_len])?;
        let sections = Arc::new(Sections::parse(
            &req.descriptor,
            desc_len,
            &cd.desc.record_dtypes,
        )?);
        // Materialize the requested versions first (regular read path).
        // The fault policy was already paid once for the whole request.
        let mut pages: Vec<(PageNo, Arc<Page>)> = Vec::with_capacity(req.pages.len());
        for &no in &req.pages {
            pages.push((no, self.read_page_inner(req.slice, no, Some(req.read_lsn))?));
        }

        let scalar_agg = cd
            .desc
            .aggregation
            .as_ref()
            .map(|a| a.group_cols.is_empty())
            .unwrap_or(false);

        if !cd.desc.requests_work() && sections.is_empty() {
            // Pure batched read: no NDP processing requested.
            return Ok(pages
                .into_iter()
                .map(|(page_no, p)| PageResult {
                    page_no,
                    payload: PagePayload::Raw(p),
                })
                .collect());
        }

        // Store-level shed-to-compute: when the store is saturated (NDP
        // queue full) or the operator forced it, the whole batch degrades
        // to raw page reads up front — the compute node finishes the work
        // and this store spends no NDP cycles on the slice at all.
        if self.force_shed() || self.pool.overloaded() {
            let n = pages.len() as u64;
            self.metrics.add(|m| &m.ps_ndp_shed, n);
            self.metrics
                .tenants
                .tenant(req.tenant)
                .pages_shed
                .fetch_add(n, Ordering::Relaxed);
            return Ok(pages
                .into_iter()
                .map(|(page_no, p)| PageResult {
                    page_no,
                    payload: PagePayload::Raw(p),
                })
                .collect());
        }

        if scalar_agg {
            return self.serve_scalar_batch(cd, sections, pages, req.tenant);
        }
        self.serve_parallel_pages(cd, sections, pages, req.tenant)
    }

    fn charge_plugin_stats(&self, pages: u64, stats: &PluginStats) {
        self.metrics.add(|m| &m.ps_pages_processed, pages);
        self.metrics
            .add(|m| &m.ps_records_filtered, stats.records_filtered);
        self.metrics
            .add(|m| &m.ps_records_aggregated, stats.records_aggregated);
        self.metrics
            .add(|m| &m.ps_records_key_filtered, stats.records_key_filtered);
        self.metrics
            .add(|m| &m.ps_records_join_filtered, stats.records_join_filtered);
    }

    /// Cross-page (scalar) aggregation: the whole sub-batch is one
    /// sequential job on the NDP pool (§V-C case 2).
    fn serve_scalar_batch(
        &self,
        cd: Arc<CachedDescriptor>,
        sections: Arc<Sections>,
        pages: Vec<(PageNo, Arc<Page>)>,
        tenant: TenantId,
    ) -> Result<Vec<PageResult>> {
        // Resource control applies to the whole cross-page job: a scalar
        // aggregation batch is one unit of NDP work.
        let skip_all = {
            let policy = self.skip_policy.read();
            matches!(&*policy, SkipPolicy::All)
                || policy.should_skip(&self.skip_counter, pages.first().map(|p| p.0).unwrap_or(0))
        };
        let (tx, rx) = bounded(1);
        let mut submitted = false;
        if !skip_all {
            let plugin = self.plugin.clone();
            let metrics = self.metrics.clone();
            let job_pages = pages.clone();
            submitted = self.admit(tenant, move || {
                let _cpu = taurus_common::metrics::CpuGuard::new(&metrics.ps_cpu_ns);
                let out = guarded(|| plugin.process_batch(&cd, &sections, &job_pages));
                let _ = tx.send(out);
            });
        }
        if !submitted {
            self.metrics.add(|m| &m.ps_ndp_skipped, pages.len() as u64);
            return Ok(pages
                .into_iter()
                .map(|(page_no, p)| PageResult {
                    page_no,
                    payload: PagePayload::Raw(p),
                })
                .collect());
        }
        match rx
            .recv()
            .map_err(|_| Error::Internal("ndp worker died".into()))?
        {
            Ok((results, stats)) => {
                self.charge_plugin_stats(results.len() as u64, &stats);
                let mut by_no: HashMap<PageNo, Page> = results.into_iter().collect();
                Ok(pages
                    .into_iter()
                    .map(|(page_no, raw)| match by_no.remove(&page_no) {
                        Some(ndp) => PageResult {
                            page_no,
                            payload: PagePayload::Ndp(Arc::new(ndp)),
                        },
                        None => PageResult {
                            page_no,
                            payload: PagePayload::Raw(raw),
                        },
                    })
                    .collect())
            }
            Err(_) => {
                // Plugin failure: degrade to raw pages, never fail the read.
                self.metrics.add(|m| &m.ps_ndp_skipped, pages.len() as u64);
                Ok(pages
                    .into_iter()
                    .map(|(page_no, p)| PageResult {
                        page_no,
                        payload: PagePayload::Raw(p),
                    })
                    .collect())
            }
        }
    }

    /// Tenant-attributed admission: submit one NDP job and charge the
    /// outcome. `false` means the job was refused (queue full or tenant
    /// quota) and the caller serves raw.
    fn admit(&self, tenant: TenantId, job: impl FnOnce() + Send + 'static) -> bool {
        match self.pool.try_submit_for(tenant, job) {
            Admission::Admitted => {
                self.metrics
                    .tenants
                    .tenant(tenant)
                    .ndp_admitted
                    .fetch_add(1, Ordering::Relaxed);
                true
            }
            Admission::QuotaExceeded => {
                self.metrics.add(|m| &m.ps_ndp_quota_rejected, 1);
                self.metrics
                    .tenants
                    .tenant(tenant)
                    .ndp_quota_rejected
                    .fetch_add(1, Ordering::Relaxed);
                false
            }
            Admission::QueueFull => false,
        }
    }

    /// Independent pages: one pool job each, processed "concurrently,
    /// independently, and in any order" (§IV-D); results re-ordered to
    /// match the request.
    fn serve_parallel_pages(
        &self,
        cd: Arc<CachedDescriptor>,
        sections: Arc<Sections>,
        pages: Vec<(PageNo, Arc<Page>)>,
        tenant: TenantId,
    ) -> Result<Vec<PageResult>> {
        let n = pages.len();
        let (tx, rx) = bounded(n.max(1));
        let mut payloads: Vec<Option<PagePayload>> = vec![None; n];
        let mut submitted = 0usize;
        for (idx, (no, page)) in pages.iter().enumerate() {
            let skip = {
                let policy = self.skip_policy.read();
                policy.should_skip(&self.skip_counter, *no)
            };
            if skip {
                self.metrics.add(|m| &m.ps_ndp_skipped, 1);
                payloads[idx] = Some(PagePayload::Raw(page.clone()));
                continue;
            }
            let cd = cd.clone();
            let sections = sections.clone();
            let plugin = self.plugin.clone();
            let metrics = self.metrics.clone();
            let job_page = page.clone();
            let tx = tx.clone();
            let ok = self.admit(tenant, move || {
                let _cpu = taurus_common::metrics::CpuGuard::new(&metrics.ps_cpu_ns);
                let out = guarded(|| plugin.process_page(&cd, &sections, &job_page));
                let _ = tx.send((idx, out));
            });
            if ok {
                submitted += 1;
            } else {
                // Queue full: best-effort skip (§IV-D2).
                self.metrics.add(|m| &m.ps_ndp_skipped, 1);
                payloads[idx] = Some(PagePayload::Raw(page.clone()));
            }
        }
        // Only the jobs hold senders now: should one end without
        // reporting, `recv` fails instead of waiting forever.
        drop(tx);
        for _ in 0..submitted {
            let (idx, out) = rx
                .recv()
                .map_err(|_| Error::Internal("ndp worker died".into()))?;
            match out {
                Ok((ndp_page, stats)) => {
                    self.charge_plugin_stats(1, &stats);
                    payloads[idx] = Some(PagePayload::Ndp(Arc::new(ndp_page)));
                }
                Err(_) => {
                    self.metrics.add(|m| &m.ps_ndp_skipped, 1);
                    payloads[idx] = Some(PagePayload::Raw(pages[idx].1.clone()));
                }
            }
        }
        Ok(pages
            .iter()
            .zip(payloads)
            .map(|((no, raw), p)| PageResult {
                page_no: *no,
                payload: p.unwrap_or_else(|| PagePayload::Raw(raw.clone())),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::SpaceId;

    fn store() -> Arc<PageStore> {
        PageStore::new(
            0,
            PageStoreConfig {
                slice_pages: 8,
                ..Default::default()
            },
            Metrics::shared(),
        )
    }

    /// A valid descriptor that requests no NDP work (pure batched read).
    fn no_work_descriptor() -> Arc<Vec<u8>> {
        Arc::new(
            taurus_expr::descriptor::NdpDescriptor {
                index_id: 7,
                record_dtypes: vec![taurus_common::DataType::BigInt],
                key_positions: vec![0],
                projection: None,
                predicate_bitcode: None,
                aggregation: None,
                low_watermark: 100,
            }
            .encode(),
        )
    }

    fn new_page_redo(space: u32, page_no: PageNo, lsn: Lsn) -> RedoRecord {
        RedoRecord {
            lsn,
            space: SpaceId(space),
            page_no,
            body: crate::redo::RedoBody::NewPage(
                Page::new_index(1024, SpaceId(space), page_no, 7, 0).into_bytes(),
            ),
        }
    }

    #[test]
    fn apply_redo_creates_versions_and_reads_by_lsn() {
        let ps = store();
        let sid = SliceId::of(SpaceId(1), 3, 8);
        ps.create_slice(sid);
        ps.apply_redo(&[new_page_redo(1, 3, 10)]).unwrap();
        ps.apply_redo(&[RedoRecord {
            lsn: 20,
            space: SpaceId(1),
            page_no: 3,
            body: crate::redo::RedoBody::SetNext(4),
        }])
        .unwrap();
        assert_eq!(ps.applied_lsn(sid), 20);
        let v10 = ps.read_page(sid, 3, Some(10)).unwrap();
        assert_eq!(v10.next(), taurus_page::NO_PAGE);
        let v20 = ps.read_page(sid, 3, Some(25)).unwrap();
        assert_eq!(v20.next(), 4);
        let newest = ps.read_page(sid, 3, None).unwrap();
        assert_eq!(newest.lsn(), 20);
        // Before the page existed.
        assert!(ps.read_page(sid, 3, Some(5)).is_err());
    }

    #[test]
    fn version_chain_is_trimmed() {
        let ps = PageStore::new(
            0,
            PageStoreConfig {
                versions_retained: 3,
                slice_pages: 8,
                ..Default::default()
            },
            Metrics::shared(),
        );
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        ps.apply_redo(&[new_page_redo(1, 0, 1)]).unwrap();
        for lsn in 2..10 {
            ps.apply_redo(&[RedoRecord {
                lsn,
                space: SpaceId(1),
                page_no: 0,
                body: crate::redo::RedoBody::SetNext(lsn as u32),
            }])
            .unwrap();
        }
        // Old versions gone.
        assert!(ps.read_page(sid, 0, Some(3)).is_err());
        assert!(ps.read_page(sid, 0, Some(9)).is_ok());
    }

    #[test]
    fn version_pin_checks_distinguish_trimmed_from_missing() {
        let ps = PageStore::new(
            0,
            PageStoreConfig {
                versions_retained: 2,
                slice_pages: 8,
                ..Default::default()
            },
            Metrics::shared(),
        );
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        ps.apply_redo(&[new_page_redo(1, 0, 10)]).unwrap();
        for lsn in 11..15 {
            ps.apply_redo(&[RedoRecord {
                lsn,
                space: SpaceId(1),
                page_no: 0,
                body: crate::redo::RedoBody::SetNext(lsn as u32),
            }])
            .unwrap();
        }
        // Retention holds the two newest versions (13, 14).
        assert!(ps.has_version_at(sid, 0, 14));
        assert!(ps.has_version_at(sid, 0, 13));
        assert!(!ps.has_version_at(sid, 0, 12), "trimmed below the horizon");
        assert!(!ps.has_version_at(sid, 0, 9), "before the page existed");
        assert!(!ps.has_version_at(sid, 1, 9), "page never existed");
        // A pinned read below the horizon names the retention boundary.
        match ps.read_page(sid, 0, Some(11)) {
            Err(Error::InvalidState(m)) => {
                assert!(m.contains("oldest retained lsn 13"), "message: {m}")
            }
            other => panic!("expected InvalidState, got {other:?}"),
        }
    }

    #[test]
    fn system_records_are_skipped_by_apply() {
        let ps = store();
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        // A raw log batch fed to a store must not corrupt it: system
        // records apply as no-ops, page records apply normally.
        ps.apply_redo(&[
            RedoRecord {
                lsn: 1,
                space: SpaceId(0),
                page_no: 0,
                body: crate::redo::RedoBody::SysTrxEnd {
                    trx: 5,
                    aborted: false,
                    active: vec![],
                    low_limit: 6,
                },
            },
            new_page_redo(1, 0, 2),
            RedoRecord {
                lsn: 3,
                space: SpaceId(1),
                page_no: 0,
                body: crate::redo::RedoBody::SysUndo {
                    key: vec![1, 2],
                    writer: 5,
                    prev: None,
                },
            },
        ])
        .unwrap();
        assert!(ps.read_page(sid, 0, None).is_ok());
        assert_eq!(ps.applied_lsn(sid), 2, "only the page record applied");
    }

    #[test]
    fn missing_slice_is_not_found() {
        let ps = store();
        let sid = SliceId::of(SpaceId(9), 0, 8);
        assert!(matches!(
            ps.read_page(sid, 0, None),
            Err(Error::NotFound(_))
        ));
        assert!(ps.apply_redo(&[new_page_redo(9, 0, 1)]).is_err());
    }

    #[test]
    fn poisoned_store_fails_reads_until_revived() {
        let ps = store();
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        ps.apply_redo(&[new_page_redo(1, 0, 1)]).unwrap();
        assert!(ps.read_page(sid, 0, None).is_ok());
        ps.set_fault(FaultPolicy::Poison);
        assert!(matches!(
            ps.read_page(sid, 0, None),
            Err(Error::InvalidState(_))
        ));
        let req = NdpBatchRequest {
            slice: sid,
            pages: vec![0],
            read_lsn: 1,
            descriptor: no_work_descriptor(),
            tenant: taurus_common::DEFAULT_TENANT,
        };
        assert!(ps.serve_ndp_batch(&req).is_err());
        // Writes still apply while down; a revived store serves them.
        ps.apply_redo(&[RedoRecord {
            lsn: 2,
            space: SpaceId(1),
            page_no: 0,
            body: crate::redo::RedoBody::SetNext(9),
        }])
        .unwrap();
        ps.set_fault(FaultPolicy::None);
        assert_eq!(ps.read_page(sid, 0, None).unwrap().next(), 9);
    }

    #[test]
    fn request_accounting_charges_gauge_and_peak() {
        let ps = store();
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        ps.apply_redo(&[new_page_redo(1, 0, 1)]).unwrap();
        assert_eq!(ps.active_requests_peak(), 0);
        // A no-work descriptor: served inline as raw, still accounted.
        let req = NdpBatchRequest {
            slice: sid,
            pages: vec![0],
            read_lsn: 1,
            descriptor: no_work_descriptor(),
            tenant: taurus_common::DEFAULT_TENANT,
        };
        ps.serve_ndp_batch(&req).unwrap();
        assert_eq!(ps.active_requests(), 0, "gauge balanced after serving");
        assert_eq!(ps.active_requests_peak(), 1);
    }

    #[test]
    fn freed_page_not_served() {
        let ps = store();
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        ps.apply_redo(&[new_page_redo(1, 0, 1)]).unwrap();
        ps.apply_redo(&[RedoRecord {
            lsn: 2,
            space: SpaceId(1),
            page_no: 0,
            body: crate::redo::RedoBody::FreePage,
        }])
        .unwrap();
        assert!(ps.read_page(sid, 0, None).is_err());
        // The old version is still readable at its LSN (snapshot reads).
        assert!(ps.read_page(sid, 0, Some(1)).is_ok());
    }

    /// A descriptor that requests NDP work (projection), so the serving
    /// path goes through admission rather than the pure-read shortcut.
    fn work_descriptor() -> Arc<Vec<u8>> {
        Arc::new(
            taurus_expr::descriptor::NdpDescriptor {
                index_id: 7,
                record_dtypes: vec![taurus_common::DataType::BigInt],
                key_positions: vec![0],
                projection: Some(vec![0]),
                predicate_bitcode: None,
                aggregation: None,
                low_watermark: 100,
            }
            .encode(),
        )
    }

    #[test]
    fn latency_fault_delays_reads_but_serves_them() {
        let ps = store();
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        ps.apply_redo(&[new_page_redo(1, 0, 1)]).unwrap();
        ps.set_fault(FaultPolicy::Latency(Duration::from_millis(30)));
        let t0 = std::time::Instant::now();
        assert!(ps.read_page(sid, 0, None).is_ok(), "brownout ≠ failure");
        assert!(t0.elapsed() >= Duration::from_millis(30));
        ps.set_fault(FaultPolicy::None);
        assert!(ps.read_page(sid, 0, None).is_ok());
    }

    #[test]
    fn error_until_lsn_clears_once_the_slice_catches_up() {
        let ps = store();
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        ps.apply_redo(&[new_page_redo(1, 0, 1)]).unwrap();
        ps.set_fault(FaultPolicy::ErrorUntilLsn(5));
        match ps.read_page(sid, 0, None) {
            Err(Error::InvalidState(m)) => assert!(m.contains("browned out"), "{m}"),
            other => panic!("expected brownout error, got {other:?}"),
        }
        // Redo still applies while browned out; the fault self-clears.
        ps.apply_redo(&[RedoRecord {
            lsn: 5,
            space: SpaceId(1),
            page_no: 0,
            body: crate::redo::RedoBody::SetNext(2),
        }])
        .unwrap();
        assert!(ps.read_page(sid, 0, None).is_ok());
    }

    #[test]
    fn error_rate_is_all_or_nothing_at_the_extremes() {
        let ps = store();
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        ps.apply_redo(&[new_page_redo(1, 0, 1)]).unwrap();
        ps.set_fault(FaultPolicy::ErrorRate(100));
        for _ in 0..10 {
            assert!(ps.read_page(sid, 0, None).is_err());
        }
        ps.set_fault(FaultPolicy::ErrorRate(0));
        for _ in 0..10 {
            assert!(ps.read_page(sid, 0, None).is_ok());
        }
    }

    #[test]
    fn force_shed_degrades_whole_batches_to_raw() {
        let ps = store();
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        ps.apply_redo(&[new_page_redo(1, 0, 1), new_page_redo(1, 1, 2)])
            .unwrap();
        let req = NdpBatchRequest {
            slice: sid,
            pages: vec![0, 1],
            read_lsn: 2,
            descriptor: work_descriptor(),
            tenant: 7,
        };
        ps.set_force_shed(true);
        let out = ps.serve_ndp_batch(&req).unwrap();
        assert_eq!(out.len(), 2);
        assert!(
            out.iter().all(|r| matches!(r.payload, PagePayload::Raw(_))),
            "shed batch must ship raw pages only"
        );
        let snap = ps.metrics.snapshot();
        assert_eq!(snap.ps_ndp_shed, 2, "both pages counted as shed");
        assert_eq!(
            ps.metrics
                .tenants
                .tenant(7)
                .pages_shed
                .load(Ordering::Relaxed),
            2,
            "shed billed to the requesting tenant"
        );
        // Shed off: the same batch goes through NDP admission again.
        ps.set_force_shed(false);
        ps.serve_ndp_batch(&req).unwrap();
        assert_eq!(ps.metrics.snapshot().ps_ndp_shed, 2, "no further sheds");
        assert!(
            ps.metrics
                .tenants
                .tenant(7)
                .ndp_admitted
                .load(Ordering::Relaxed)
                > 0,
            "work admitted once shed cleared"
        );
    }

    /// A plugin whose every call panics.
    struct PanickingPlugin;

    impl NdpPlugin for PanickingPlugin {
        fn name(&self) -> &'static str {
            "panicking"
        }

        fn process_page(
            &self,
            _: &CachedDescriptor,
            _: &Sections,
            _: &Page,
        ) -> Result<(Page, crate::plugin::PluginStats)> {
            panic!("plugin failure (expected in this test)")
        }

        fn process_batch(
            &self,
            _: &CachedDescriptor,
            _: &Sections,
            _: &[(PageNo, Arc<Page>)],
        ) -> Result<(Vec<(PageNo, Page)>, crate::plugin::PluginStats)> {
            panic!("plugin failure (expected in this test)")
        }
    }

    /// A panic inside an NDP job degrades the page (or the scalar batch)
    /// to raw like any plugin error: the request returns, and the pool
    /// keeps every worker for the requests after it.
    #[test]
    fn a_panicking_plugin_degrades_to_raw_pages_and_keeps_the_pool() {
        const THREADS: usize = 2;
        let hang_guard = Duration::from_secs(10);
        let ps = PageStore::with_plugin(
            0,
            PageStoreConfig {
                slice_pages: 8,
                ndp_threads: THREADS,
                ..Default::default()
            },
            Metrics::shared(),
            Arc::new(PanickingPlugin),
        );
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        let redo: Vec<RedoRecord> = (0..4).map(|p| new_page_redo(1, p, p as u64 + 1)).collect();
        ps.apply_redo(&redo).unwrap();
        // One pool job per page, then one job for the whole batch, then a
        // job per page again for a request whose only work is its key set.
        let mut keyed = no_work_descriptor().to_vec();
        taurus_expr::descriptor::encode_key_set([&b"\x01k"[..]].into_iter(), &mut keyed);
        let scalar_agg = Arc::new(
            taurus_expr::descriptor::NdpDescriptor {
                index_id: 7,
                record_dtypes: vec![taurus_common::DataType::BigInt],
                key_positions: vec![0],
                projection: None,
                predicate_bitcode: None,
                aggregation: Some(taurus_expr::descriptor::NdpAggSpec {
                    specs: vec![taurus_expr::agg::AggSpec::count_star()],
                    group_cols: vec![],
                }),
                low_watermark: 100,
            }
            .encode(),
        );
        let descriptors = [work_descriptor(), scalar_agg, Arc::new(keyed)];
        for (served, descriptor) in descriptors.into_iter().enumerate() {
            let req = NdpBatchRequest {
                slice: sid,
                pages: vec![0, 1, 2, 3],
                read_lsn: 4,
                descriptor,
                tenant: taurus_common::DEFAULT_TENANT,
            };
            let (tx, rx) = bounded(1);
            let store = ps.clone();
            std::thread::spawn(move || tx.send(store.serve_ndp_batch(&req)));
            let out = rx
                .recv_timeout(hang_guard)
                .expect("the request must not wait for a job that panicked")
                .expect("a plugin panic degrades, it does not fail the read");
            assert_eq!(out.len(), 4);
            assert!(out.iter().all(|r| matches!(r.payload, PagePayload::Raw(_))));
            let snap = ps.metrics.snapshot();
            assert_eq!(snap.ps_ndp_skipped, 4 * (served as u64 + 1));
            assert_eq!(snap.ps_pages_processed, 0);
        }
        // Full strength: THREADS jobs that each wait for all the others.
        let barrier = Arc::new(std::sync::Barrier::new(THREADS));
        let (tx, rx) = bounded(THREADS);
        for _ in 0..THREADS {
            let (barrier, tx) = (barrier.clone(), tx.clone());
            assert!(ps.pool.try_submit(move || {
                barrier.wait();
                let _ = tx.send(());
            }));
        }
        for _ in 0..THREADS {
            rx.recv_timeout(hang_guard)
                .expect("every worker survived the panics");
        }
    }

    #[test]
    fn tenant_quota_rejection_degrades_to_raw_and_is_billed() {
        // Quota 0-but-set-to-1 with a multi-page batch: the parallel path
        // admits at most 1 queued job per tenant at a time; rejected pages
        // ship raw (never error) and the rejection is billed per-tenant.
        let ps = PageStore::new(
            0,
            PageStoreConfig {
                slice_pages: 8,
                ndp_threads: 1,
                ndp_queue: 16,
                ..Default::default()
            },
            Metrics::shared(),
        );
        let sid = SliceId::of(SpaceId(1), 0, 8);
        ps.create_slice(sid);
        let redo: Vec<RedoRecord> = (0..4).map(|p| new_page_redo(1, p, p as u64 + 1)).collect();
        ps.apply_redo(&redo).unwrap();
        ps.set_ndp_tenant_quota(1);
        let req = NdpBatchRequest {
            slice: sid,
            pages: vec![0, 1, 2, 3],
            read_lsn: 4,
            descriptor: work_descriptor(),
            tenant: 3,
        };
        let out = ps.serve_ndp_batch(&req).unwrap();
        assert_eq!(out.len(), 4, "quota pressure never drops pages");
        // With one worker and quota 1, at least one page must have been
        // quota-refused (the batch outpaces the drain); it shipped raw.
        let t = ps.metrics.tenants.tenant(3);
        let admitted = t.ndp_admitted.load(Ordering::Relaxed);
        let refused = t.ndp_quota_rejected.load(Ordering::Relaxed);
        assert!(admitted >= 1, "some work admitted");
        assert_eq!(
            admitted + refused,
            4,
            "every page either admitted or quota-refused"
        );
    }
}
