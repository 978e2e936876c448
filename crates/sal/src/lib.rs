//! The Storage Abstraction Layer (§II).
//!
//! The SAL runs on the database server and "isolates the database frontend
//! from the underlying complexity of remote storage": it writes log records
//! to Log Stores (in triplicate), distributes them to the Page Stores
//! hosting the affected slices, routes page reads, and — for NDP — "splits
//! a batch read into multiple sub-batches, based on where the pages are
//! located … and concurrently sends the sub-batches to Page Stores, with
//! the effect that multiple Page Stores are engaged in parallel" (§VI-2).
//!
//! Every read, a single page or a slice's sub-batch, goes through one
//! replica failover loop (`with_failover`): replicas in order, every
//! attempt charged as a request, backoff-retry rounds for transient
//! failures, the query's deadline checked before every attempt. Every
//! byte crossing this layer is metered by [`network::Network`].

pub mod network;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;
use taurus_common::govern::backoff_delay;
use taurus_common::{
    panic_message, ClusterConfig, Error, Lsn, Metrics, PageNo, PageRef, QueryCtx, Result, SliceId,
    SpaceId,
};
use taurus_logstore::LogStore;
use taurus_page::Page;
use taurus_pagestore::{
    FaultPolicy, NdpBatchRequest, PagePayload, PageResult, PageStore, PageStoreConfig, RedoRecord,
    SkipPolicy,
};

pub use network::{Direction, Network};

/// Fixed per-request framing overhead we charge on the wire (headers,
/// page ids, LSN), so "bytes" stay honest without a real RPC layer.
const REQ_HEADER_BYTES: u64 = 32;
const PER_PAGE_ID_BYTES: u64 = 8;
const PER_PAGE_RESULT_HEADER: u64 = 16;

/// Log Store servers: the paper writes the log in triplicate.
const N_LOG_STORES: usize = 3;

/// Full passes a read makes over a slice's replica set before giving up.
/// Round 1 is the normal failover pass; round 2 re-visits the replicas
/// after a jittered backoff, riding out a brownout shorter than the
/// query's deadline.
const READ_RETRY_ROUNDS: u32 = 2;

/// Base backoff between retry rounds: doubled per round, ±50 % jitter,
/// capped at 250 ms (see `govern::backoff_delay`).
const READ_BACKOFF: Duration = Duration::from_micros(500);

/// The Storage Abstraction Layer: slice placement, log fan-out, page-read
/// routing, batch splitting.
pub struct Sal {
    cfg: ClusterConfig,
    page_stores: Vec<Arc<PageStore>>,
    log_stores: Vec<Arc<LogStore>>,
    /// Shared with read-only attachments (replicas see master placements).
    placement: Arc<RwLock<HashMap<SliceId, Vec<usize>>>>,
    /// Shared with read-only attachments (replicas compute lag against
    /// the master's LSN cursor).
    next_lsn: Arc<AtomicU64>,
    network: Arc<Network>,
    metrics: Arc<Metrics>,
    rr_counter: AtomicU64,
    /// Rotates the starting replica of batch-read sub-dispatches so read
    /// load spreads across a slice's replicas instead of pinning
    /// `replicas[0]`.
    read_rr: AtomicU64,
    /// Read-only attachment (replica compute node): `write_log` is
    /// refused; everything else — page reads, batch reads, log reads —
    /// works against the same shared storage services.
    read_only: bool,
}

impl Sal {
    /// Bring up a full storage cluster (Page Stores + Log Stores) per the
    /// configuration.
    pub fn new(cfg: ClusterConfig, metrics: Arc<Metrics>) -> Arc<Sal> {
        let ps_cfg = PageStoreConfig {
            versions_retained: cfg.pagestore_versions_retained,
            ndp_threads: cfg.pagestore_ndp_threads,
            ndp_queue: cfg.pagestore_ndp_queue,
            slice_pages: cfg.slice_pages,
        };
        let page_stores: Vec<Arc<PageStore>> = (0..cfg.n_page_stores)
            .map(|i| PageStore::new(i, ps_cfg.clone(), metrics.clone()))
            .collect();
        // Fault injection from config/env (`TAURUS_FAULT_*`,
        // `TAURUS_NDP_SKIP_EVERY_NTH`) applies only to stores the SAL
        // builds — directly-constructed stores (unit tests) are never
        // faulted.
        if cfg.fault.skip_every_nth > 0 {
            for ps in &page_stores {
                ps.set_skip_policy(SkipPolicy::EveryNth(cfg.fault.skip_every_nth));
            }
        }
        if let Some(ps) = cfg.fault.store.and_then(|idx| page_stores.get(idx)) {
            ps.set_fault(if cfg.fault.latency_ms > 0 {
                FaultPolicy::Latency(Duration::from_millis(cfg.fault.latency_ms))
            } else {
                FaultPolicy::None
            });
        }
        let log_stores = (0..N_LOG_STORES)
            .map(|i| Arc::new(LogStore::new(i)))
            .collect();
        let network = Network::new(&cfg.network, metrics.clone());
        Arc::new(Sal {
            cfg,
            page_stores,
            log_stores,
            placement: Arc::new(RwLock::new(HashMap::new())),
            next_lsn: Arc::new(AtomicU64::new(1)),
            network,
            metrics,
            rr_counter: AtomicU64::new(0),
            read_rr: AtomicU64::new(0),
            read_only: false,
        })
    }

    /// Attach a read-only compute node (a read replica, §II) to this
    /// cluster's storage services: the attachment shares the Page Stores,
    /// Log Stores, slice placements and the master's LSN cursor — no page
    /// data is copied — but gets its own [`Network`] metered into
    /// `metrics` (per-node traffic accounting) and refuses `write_log`.
    pub fn attach_read_only(self: &Arc<Self>, metrics: Arc<Metrics>) -> Arc<Sal> {
        Arc::new(Sal {
            cfg: self.cfg.clone(),
            page_stores: self.page_stores.clone(),
            log_stores: self.log_stores.clone(),
            placement: self.placement.clone(),
            next_lsn: self.next_lsn.clone(),
            network: Network::new(&self.cfg.network, metrics.clone()),
            metrics,
            rr_counter: AtomicU64::new(0),
            read_rr: AtomicU64::new(0),
            read_only: true,
        })
    }

    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn page_stores(&self) -> &[Arc<PageStore>] {
        &self.page_stores
    }

    pub fn log_stores(&self) -> &[Arc<LogStore>] {
        &self.log_stores
    }

    /// The newest allocated LSN (all redo up to here has been applied —
    /// this simulation applies synchronously on the write path).
    pub fn current_lsn(&self) -> Lsn {
        self.next_lsn.load(Ordering::SeqCst).saturating_sub(1)
    }

    fn slice_of(&self, space: SpaceId, page_no: PageNo) -> SliceId {
        SliceId::of(space, page_no, self.cfg.slice_pages)
    }

    /// Ensure a slice exists, choosing replicas round-robin across Page
    /// Stores (the multi-tenant placement of §II).
    pub fn ensure_slice(&self, slice: SliceId) -> Vec<usize> {
        if let Some(r) = self.placement.read().get(&slice) {
            return r.clone();
        }
        let mut w = self.placement.write();
        if let Some(r) = w.get(&slice) {
            return r.clone();
        }
        let n = self.page_stores.len();
        let k = self.cfg.effective_replication();
        let start = (self.rr_counter.fetch_add(1, Ordering::Relaxed) as usize) % n;
        let replicas: Vec<usize> = (0..k).map(|i| (start + i) % n).collect();
        for &r in &replicas {
            self.page_stores[r].create_slice(slice);
        }
        w.insert(slice, replicas.clone());
        replicas
    }

    /// Replica placement of a slice (first = preferred replica for
    /// single-page reads), if it has one.
    pub fn replicas_of(&self, slice: SliceId) -> Option<Vec<usize>> {
        self.placement.read().get(&slice).cloned()
    }

    fn replicas_for(&self, slice: SliceId) -> Result<Vec<usize>> {
        self.placement
            .read()
            .get(&slice)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("slice {slice:?} has no placement")))
    }

    /// Write path (§II): assign LSNs, append to all Log Stores (triplicate
    /// durability), then distribute records to the Page Store replicas of
    /// each affected slice and apply. System records (`RedoBody::Sys*`)
    /// are durably logged but never distributed — they exist *for* the
    /// log, which is the only channel read replicas tail.
    ///
    /// The triplicate appends dispatch concurrently (one thread per Log
    /// Store, the PR-4 sub-batch pattern): commit latency pays the
    /// *slowest* replica once, not all three in sequence. The flush wall
    /// time lands in `log_flush_ns`/`log_flushes`.
    pub fn write_log(&self, mut records: Vec<RedoRecord>) -> Result<Lsn> {
        if self.read_only {
            return Err(Error::InvalidState(
                "write_log on a read-only SAL attachment (replicas never write)".into(),
            ));
        }
        if records.is_empty() {
            return Ok(self.current_lsn());
        }
        let n = records.len() as u64;
        let base = self.next_lsn.fetch_add(n, Ordering::SeqCst);
        for (i, r) in records.iter_mut().enumerate() {
            r.lsn = base + i as u64;
        }
        let batch = RedoRecord::encode_batch(&records);
        let last = base + n - 1;
        let t0 = std::time::Instant::now();
        let append_one = |ls: &LogStore| {
            self.network
                .transfer(Direction::ToStorage, batch.len() as u64);
            ls.append(&batch, base, last);
            self.metrics
                .add(|m| &m.log_bytes_appended, batch.len() as u64);
            // Durability ack.
            self.network.transfer(Direction::FromStorage, 16);
        };
        // Concurrent dispatch exists to overlap *wire* time — when the
        // network model paces transfers, commit latency pays the slowest
        // replica once instead of all three in sequence. With no wire
        // model an append is a nanosecond-scale memory write and thread
        // spawns would dominate the DML hot path, so append serially.
        let paced = self.cfg.network.bandwidth_bytes_per_sec.is_some();
        if paced && self.log_stores.len() > 1 {
            std::thread::scope(|s| {
                // n-1 dispatch threads; the caller serves the last store
                // itself instead of idling.
                let (inline, rest) = self
                    .log_stores
                    .split_last()
                    // lint:allow(panic): a cluster is constructed with >= 1 log store
                    .expect("clusters have log stores");
                for ls in rest {
                    s.spawn(|| append_one(ls));
                }
                append_one(inline);
            });
        } else {
            for ls in &self.log_stores {
                append_one(ls);
            }
        }
        self.metrics
            .add(|m| &m.log_flush_ns, t0.elapsed().as_nanos() as u64);
        self.metrics.add(|m| &m.log_flushes, 1);
        // Distribute to Page Stores by slice.
        let mut by_slice: HashMap<SliceId, Vec<RedoRecord>> = HashMap::new();
        for r in records {
            if r.body.is_system() {
                continue;
            }
            by_slice
                .entry(r.slice(self.cfg.slice_pages))
                .or_default()
                .push(r);
        }
        for (slice, recs) in by_slice {
            let replicas = self.ensure_slice(slice);
            let bytes = RedoRecord::encode_batch(&recs).len() as u64;
            for &ps in &replicas {
                self.network.transfer(Direction::ToStorage, bytes);
                self.page_stores[ps].apply_redo(&recs)?;
            }
        }
        Ok(base + n - 1)
    }

    /// Regular single-page read: what a classical *scan* reads with, one
    /// leaf after another ("a regular InnoDB scan does not perform batch
    /// reads", §I), and what any tree walk falls back to for a page the
    /// pool lacks. A lookup join does not come here for its leaves: it
    /// resolves a batch of probe keys to leaves first and reads them
    /// through [`Sal::batch_read_ctx`], a chunk to a request (whole
    /// leaves under a work-free descriptor, or, as an NDP key read, the
    /// probed keys' records under a real one).
    ///
    /// The read runs under a query context, through the SAL's one
    /// failover loop ([`with_failover`]): the slice's replicas in
    /// placement order, retry rounds for transient failures, the context's
    /// deadline. The page is shipped once, from the replica that served.
    pub fn read_page_ctx(
        &self,
        pref: PageRef,
        at_lsn: Option<Lsn>,
        ctx: &QueryCtx,
    ) -> Result<Arc<Page>> {
        let slice = self.slice_of(pref.space, pref.page_no);
        let replicas = self.replicas_for(slice)?;
        let p = with_failover(
            &replicas,
            &self.metrics,
            &self.network,
            ctx,
            "single-page read",
            pref.page_no as u64,
            REQ_HEADER_BYTES + PER_PAGE_ID_BYTES,
            |&ps| self.page_stores[ps].read_page(slice, pref.page_no, at_lsn),
        )?;
        self.network.transfer(
            Direction::FromStorage,
            p.byte_len() as u64 + PER_PAGE_RESULT_HEADER,
        );
        self.metrics.add(|m| &m.pages_shipped_raw, 1);
        Ok(p)
    }

    /// Batch read (§IV-C4, §VI-2) under a query context (tenant
    /// attribution, deadline, retry rounds): split by slice, dispatch
    /// sub-batches concurrently, reassemble in request order. Join-all
    /// wrapper over [`Sal::batch_read_streaming_ctx`]. NDP scans stream;
    /// the caller that waits for the whole batch is a lookup join, with a
    /// chunk of leaves: its prefetch, whose descriptor requests no work
    /// (whole pages back), or its NDP key read, whose descriptor stream
    /// ends in the chunk's probe keys (their records back, in NDP pages
    /// it consumes in request order).
    pub fn batch_read_ctx(
        &self,
        space: SpaceId,
        pages: &[PageNo],
        read_lsn: Lsn,
        descriptor: Arc<Vec<u8>>,
        ctx: &QueryCtx,
    ) -> Result<Vec<PageResult>> {
        let mut handle = self.batch_read_streaming_ctx(space, pages, read_lsn, descriptor, ctx)?;
        let mut by_page: HashMap<PageNo, PageResult> = HashMap::with_capacity(pages.len());
        while let Some(sub) = handle.recv() {
            for pr in sub? {
                by_page.insert(pr.page_no, pr);
            }
        }
        pages
            .iter()
            .map(|p| {
                by_page
                    .remove(p)
                    .ok_or_else(|| Error::Internal(format!("page {p} missing from batch")))
            })
            .collect()
    }

    /// Streaming NDP batch read: split `pages` into per-slice sub-batches
    /// and dispatch each on its own thread, like [`Sal::batch_read_ctx`] — but
    /// deliver each sub-batch's [`PageResult`]s through a bounded channel
    /// **as it completes**, so the caller can consume early sub-batches
    /// (and prefetch further leaf batches) while slower Page Stores are
    /// still working. The caller enforces logical page order; this layer
    /// only promises that every requested page eventually arrives in
    /// exactly one delivered sub-batch (or an error does).
    ///
    /// Each sub-batch picks its starting replica round-robin (load
    /// spread) and fails over to the slice's remaining replicas on error,
    /// charging request bytes per attempted replica — the batch analogue
    /// of [`Sal::read_page_ctx`]'s failover. Under a query context
    /// ([`Sal::batch_read_streaming_ctx`]; this form runs under the
    /// anonymous tenant's, with no deadline) sub-batches are billed to
    /// the context's tenant on the Page-Store side, failover gains
    /// bounded backoff-retry rounds for transient errors, and the
    /// context's deadline caps the whole dispatch.
    ///
    /// Dropping the returned handle cancels delivery: the channel closes,
    /// in-flight sub-batch threads finish their current store call, fail
    /// to send, and are joined before `drop` returns — no dispatch thread
    /// ever outlives its handle.
    pub fn batch_read_streaming(
        &self,
        space: SpaceId,
        pages: &[PageNo],
        read_lsn: Lsn,
        descriptor: Arc<Vec<u8>>,
    ) -> Result<BatchReadHandle> {
        self.batch_read_streaming_ctx(space, pages, read_lsn, descriptor, &QueryCtx::new())
    }

    /// [`Sal::batch_read_streaming`] under a query context.
    pub fn batch_read_streaming_ctx(
        &self,
        space: SpaceId,
        pages: &[PageNo],
        read_lsn: Lsn,
        descriptor: Arc<Vec<u8>>,
        ctx: &QueryCtx,
    ) -> Result<BatchReadHandle> {
        let ctx = *ctx;
        // Group into per-slice sub-batches, preserving order within each
        // and ordered by each slice's first page, so the same read always
        // dispatches the same way.
        let mut sub: Vec<(SliceId, Vec<PageNo>)> = Vec::new();
        for &p in pages {
            let slice = self.slice_of(space, p);
            match sub.iter_mut().find(|(s, _)| *s == slice) {
                Some((_, nos)) => nos.push(p),
                None => sub.push((slice, vec![p])),
            }
        }
        // Resolve placements up front: an unknown slice fails the whole
        // read before any thread is spawned.
        let mut jobs: Vec<(SliceId, Vec<PageNo>, Vec<Arc<PageStore>>)> =
            Vec::with_capacity(sub.len());
        for (slice, nos) in sub {
            let replicas = self.replicas_for(slice)?;
            let start = (self.read_rr.fetch_add(1, Ordering::Relaxed) as usize) % replicas.len();
            let stores: Vec<Arc<PageStore>> = (0..replicas.len())
                .map(|i| self.page_stores[replicas[(start + i) % replicas.len()]].clone())
                .collect();
            jobs.push((slice, nos, stores));
        }
        // One slot per sub-batch: dispatch threads never block on send, so
        // a stalled consumer cannot wedge a Page Store worker; memory is
        // bounded by the caller's look-ahead quota, which sizes `pages`.
        let (tx, rx) = crossbeam::channel::bounded::<Result<Vec<PageResult>>>(jobs.len().max(1));
        let mut threads = Vec::with_capacity(jobs.len());
        for (slice, nos, stores) in jobs {
            self.metrics.add(|m| &m.sql_threads_spawned, 1);
            let descriptor = descriptor.clone();
            let network = self.network.clone();
            let metrics = self.metrics.clone();
            let tx = tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("sal-subbatch-{}", slice.seq))
                    .spawn(move || {
                        let req = NdpBatchRequest {
                            slice,
                            pages: nos,
                            read_lsn,
                            descriptor,
                            tenant: ctx.tenant,
                        };
                        // A panic must surface as this sub-batch's error,
                        // not be swallowed by the handle's join (where it
                        // would masquerade as "page missing from batch").
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let request_bytes = REQ_HEADER_BYTES
                                + req.descriptor.len() as u64
                                + PER_PAGE_ID_BYTES * req.pages.len() as u64;
                            let out = with_failover(
                                &stores,
                                &metrics,
                                &network,
                                &ctx,
                                "batch read",
                                req.slice.seq as u64,
                                request_bytes,
                                |store| store.serve_ndp_batch(&req),
                            )?;
                            ship_reply(&out, &network, &metrics);
                            Ok(out)
                        }))
                        .unwrap_or_else(|panic| {
                            Err(Error::Internal(format!(
                                "sal sub-batch dispatch panicked: {}",
                                panic_message(&*panic)
                            )))
                        });
                        // A failed send means the handle was dropped
                        // (cancelled scan); the result is discarded.
                        let _ = tx.send(out);
                    })
                    // lint:allow(panic): thread spawn fails only on OS resource exhaustion
                    .expect("spawn sal sub-batch dispatch"),
            );
        }
        Ok(BatchReadHandle {
            rx: Some(rx),
            threads,
        })
    }
}

/// The SAL's one replica failover loop, behind every read: try each
/// replica in order until `attempt` gets an answer from one. Every
/// attempt is a real request (`request_bytes` on the wire and a
/// `net_read_requests` count — a silent retry is not free), and attempts
/// beyond the first count as `read_retries`. For *transient* failures
/// only, the replicas are swept again, up to [`READ_RETRY_ROUNDS`]
/// rounds, after a jittered exponential backoff from `seed` (metered in
/// `read_backoff_waits`). The context's deadline, checked before every
/// attempt and every backoff under the label `what`, cuts the loop off
/// wherever it stands. The caller charges the answer.
#[allow(clippy::too_many_arguments)]
fn with_failover<R, T>(
    replicas: &[R],
    metrics: &Metrics,
    network: &Network,
    ctx: &QueryCtx,
    what: &str,
    seed: u64,
    request_bytes: u64,
    mut attempt: impl FnMut(&R) -> Result<T>,
) -> Result<T> {
    let mut last_err = None;
    for round in 1..=READ_RETRY_ROUNDS {
        if round > 1 {
            check_deadline(metrics, ctx, what)?;
            let d = backoff_delay(READ_BACKOFF, round - 1, seed ^ round as u64);
            if !d.is_zero() {
                metrics.add(|m| &m.read_backoff_waits, 1);
                std::thread::sleep(d);
            }
        }
        for (i, replica) in replicas.iter().enumerate() {
            check_deadline(metrics, ctx, what)?;
            metrics.add(|m| &m.net_read_requests, 1);
            if round > 1 || i > 0 {
                metrics.add(|m| &m.read_retries, 1);
            }
            network.transfer(Direction::ToStorage, request_bytes);
            match attempt(replica) {
                Ok(out) => return Ok(out),
                Err(e) => last_err = Some(e),
            }
        }
        if !last_err.as_ref().is_some_and(is_transient) {
            break;
        }
    }
    Err(last_err.unwrap_or_else(|| Error::Internal(format!("{what} had no replicas"))))
}

/// Is this failure worth another round? Only conditions that can clear on
/// their own: a down/browned-out store ([`Error::InvalidState`] from
/// fault injection or a lagging slice) or explicit overload. Everything
/// else — missing pages, corruption, parse errors — is deterministic and
/// retrying it just burns the deadline.
fn is_transient(e: &Error) -> bool {
    matches!(e, Error::InvalidState(_) | Error::Overloaded(_))
}

/// Meter a sub-batch's answer: each page by what it is, and the bytes
/// shipped back.
fn ship_reply(out: &[PageResult], network: &Network, metrics: &Metrics) {
    let mut bytes = 0u64;
    for r in out {
        bytes += r.payload.byte_len() as u64 + PER_PAGE_RESULT_HEADER;
        match &r.payload {
            PagePayload::Ndp(p) => {
                if p.page_type() == taurus_page::PageType::NdpEmpty {
                    metrics.add(|m| &m.pages_shipped_empty, 1);
                } else {
                    metrics.add(|m| &m.pages_shipped_ndp, 1);
                }
            }
            PagePayload::Raw(_) => {
                metrics.add(|m| &m.pages_shipped_raw, 1);
            }
        }
    }
    network.transfer(Direction::FromStorage, bytes);
}

/// Deadline check that meters expiries (shared by the in-line read path
/// and the sub-batch dispatch threads).
fn check_deadline(metrics: &Metrics, ctx: &QueryCtx, what: &str) -> Result<()> {
    ctx.check(what).inspect_err(|_| {
        metrics.add(|m| &m.deadline_exceeded, 1);
    })
}

/// A streaming batch read in flight: receive completed sub-batches with
/// [`BatchReadHandle::recv`]; drop to cancel (joins all dispatch
/// threads). See [`Sal::batch_read_streaming`].
pub struct BatchReadHandle {
    rx: Option<crossbeam::channel::Receiver<Result<Vec<PageResult>>>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl BatchReadHandle {
    /// The next completed sub-batch, blocking until one finishes; `None`
    /// once every sub-batch has been delivered.
    pub fn recv(&mut self) -> Option<Result<Vec<PageResult>>> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl Drop for BatchReadHandle {
    fn drop(&mut self) {
        // Close the channel first so any thread blocked in `send` (or
        // about to send) observes the cancellation, then join: after
        // `drop` returns, no dispatch thread is still running.
        self.rx = None;
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taurus_common::{DataType, Value};
    use taurus_expr::descriptor::NdpDescriptor;
    use taurus_page::{encode_record, RecordLayout, RecordMeta};
    use taurus_pagestore::RedoBody;

    fn test_cfg() -> ClusterConfig {
        let mut cfg = ClusterConfig::small_for_tests();
        cfg.slice_pages = 4; // tiny slices => multi-slice batches
        cfg.n_page_stores = 3;
        cfg.replication = 2;
        cfg
    }

    fn leaf_image(space: u32, page_no: u32, keys: &[i64]) -> Vec<u8> {
        let l = RecordLayout::new(vec![DataType::BigInt]);
        let mut p = Page::new_index(1024, SpaceId(space), page_no, 7, 0);
        for &k in keys {
            let mut b = Vec::new();
            encode_record(&l, &[Value::Int(k)], RecordMeta::ordinary(1), None, &mut b).unwrap();
            p.append_record(&b).unwrap();
        }
        p.into_bytes()
    }

    fn no_work_descriptor() -> Arc<Vec<u8>> {
        Arc::new(
            NdpDescriptor {
                index_id: 7,
                record_dtypes: vec![DataType::BigInt],
                key_positions: vec![0],
                projection: None,
                predicate_bitcode: None,
                aggregation: None,
                low_watermark: 100,
            }
            .encode(),
        )
    }

    #[test]
    fn write_log_triplicates_and_applies_to_replicas() {
        let m = Metrics::shared();
        let sal = Sal::new(test_cfg(), m.clone());
        let space = SpaceId(1);
        sal.ensure_slice(SliceId::of(space, 0, 4));
        let lsn = sal
            .write_log(vec![RedoRecord {
                lsn: 0,
                space,
                page_no: 0,
                body: RedoBody::NewPage(leaf_image(1, 0, &[1, 2, 3])),
            }])
            .unwrap();
        assert!(lsn >= 1);
        // All three log stores got the batch.
        for ls in sal.log_stores() {
            assert_eq!(ls.len(), 1);
        }
        // Exactly `replication` page stores can serve the page.
        let served = sal
            .page_stores()
            .iter()
            .filter(|ps| ps.read_page(SliceId::of(space, 0, 4), 0, None).is_ok())
            .count();
        assert_eq!(served, 2);
        assert!(m.snapshot().log_bytes_appended > 0);
    }

    #[test]
    fn write_log_meters_flush_latency_and_appends_identically() {
        let m = Metrics::shared();
        let sal = Sal::new(test_cfg(), m.clone());
        let space = SpaceId(12);
        sal.ensure_slice(SliceId::of(space, 0, 4));
        sal.write_log(vec![RedoRecord {
            lsn: 0,
            space,
            page_no: 0,
            body: RedoBody::NewPage(leaf_image(12, 0, &[1])),
        }])
        .unwrap();
        for i in 0..3u32 {
            sal.write_log(vec![RedoRecord {
                lsn: 0,
                space,
                page_no: 0,
                body: RedoBody::SetNext(i),
            }])
            .unwrap();
        }
        let d = m.snapshot();
        assert_eq!(d.log_flushes, 4, "one flush per write_log");
        assert!(d.log_flush_ns > 0, "flush wall time metered");
        // The concurrent triplicate dispatch must leave all three stores
        // byte-identical and LSN-sorted.
        let ls = sal.log_stores();
        let a = ls[0].read_from_lsn(1, 100);
        for other in &ls[1..] {
            assert_eq!(a, other.read_from_lsn(1, 100));
        }
        assert_eq!(ls[0].max_lsn(), sal.current_lsn());
    }

    #[test]
    fn system_records_stay_in_the_log() {
        let m = Metrics::shared();
        let sal = Sal::new(test_cfg(), m.clone());
        let space = SpaceId(13);
        sal.ensure_slice(SliceId::of(space, 0, 4));
        let lsn = sal
            .write_log(vec![
                RedoRecord {
                    lsn: 0,
                    space: SpaceId(0),
                    page_no: 0,
                    body: RedoBody::SysTrxEnd {
                        trx: 9,
                        aborted: false,
                        active: vec![],
                        low_limit: 10,
                    },
                },
                RedoRecord {
                    lsn: 0,
                    space,
                    page_no: 0,
                    body: RedoBody::NewPage(leaf_image(13, 0, &[1])),
                },
            ])
            .unwrap();
        // Both durably logged…
        assert_eq!(sal.log_stores()[0].max_lsn(), lsn);
        // …but only the page record reached Page Stores: space 0 (the
        // system pseudo-space) got no slice placement.
        assert!(sal.replicas_of(SliceId::of(SpaceId(0), 0, 4)).is_none());
        let served = sal
            .page_stores()
            .iter()
            .filter(|ps| ps.read_page(SliceId::of(space, 0, 4), 0, None).is_ok())
            .count();
        assert_eq!(served, 2);
    }

    #[test]
    fn read_only_attachment_reads_but_never_writes() {
        let (_m, sal) = populated_sal(14);
        let replica_metrics = Metrics::shared();
        let ro = sal.attach_read_only(replica_metrics.clone());
        assert!(ro.is_read_only() && !sal.is_read_only());
        // Shares placements + stores: reads work and meter into the
        // attachment's own metrics.
        let p = ro
            .read_page_ctx(PageRef::new(SpaceId(14), 0), None, &QueryCtx::new())
            .unwrap();
        assert_eq!(p.n_recs(), 1);
        assert_eq!(replica_metrics.snapshot().pages_shipped_raw, 1);
        // Shares the LSN cursor, refuses writes.
        assert_eq!(ro.current_lsn(), sal.current_lsn());
        let r = ro.write_log(vec![RedoRecord {
            lsn: 0,
            space: SpaceId(14),
            page_no: 0,
            body: RedoBody::SetNext(1),
        }]);
        assert!(matches!(r, Err(Error::InvalidState(_))));
    }

    #[test]
    fn lsns_are_monotonic_across_batches() {
        let sal = Sal::new(test_cfg(), Metrics::shared());
        let space = SpaceId(2);
        sal.ensure_slice(SliceId::of(space, 0, 4));
        let l1 = sal
            .write_log(vec![RedoRecord {
                lsn: 0,
                space,
                page_no: 0,
                body: RedoBody::NewPage(leaf_image(2, 0, &[1])),
            }])
            .unwrap();
        let l2 = sal
            .write_log(vec![
                RedoRecord {
                    lsn: 0,
                    space,
                    page_no: 0,
                    body: RedoBody::SetNext(1),
                },
                RedoRecord {
                    lsn: 0,
                    space,
                    page_no: 0,
                    body: RedoBody::SetPrev(9),
                },
            ])
            .unwrap();
        assert!(l2 > l1);
        assert_eq!(sal.current_lsn(), l2);
    }

    #[test]
    fn read_page_meters_network() {
        let m = Metrics::shared();
        let sal = Sal::new(test_cfg(), m.clone());
        let space = SpaceId(1);
        sal.ensure_slice(SliceId::of(space, 0, 4));
        sal.write_log(vec![RedoRecord {
            lsn: 0,
            space,
            page_no: 0,
            body: RedoBody::NewPage(leaf_image(1, 0, &[1, 2])),
        }])
        .unwrap();
        let before = m.snapshot();
        let p = sal
            .read_page_ctx(PageRef::new(space, 0), None, &QueryCtx::new())
            .unwrap();
        assert_eq!(p.n_recs(), 2);
        let d = m.snapshot().since(&before);
        assert_eq!(d.pages_shipped_raw, 1);
        assert!(d.net_bytes_from_storage >= 1024);
        assert!(d.net_bytes_to_storage >= REQ_HEADER_BYTES);
    }

    #[test]
    fn batch_read_splits_by_slice_and_reassembles_in_order() {
        let m = Metrics::shared();
        let sal = Sal::new(test_cfg(), m.clone());
        let space = SpaceId(3);
        // 12 pages over slices {0..3},{4..7},{8..11}: 3 slices.
        let mut recs = Vec::new();
        for no in 0..12u32 {
            sal.ensure_slice(SliceId::of(space, no, 4));
            recs.push(RedoRecord {
                lsn: 0,
                space,
                page_no: no,
                body: RedoBody::NewPage(leaf_image(3, no, &[no as i64])),
            });
        }
        sal.write_log(recs).unwrap();
        let pages: Vec<PageNo> = (0..12).collect();
        let before = m.snapshot();
        let out = sal
            .batch_read_ctx(
                space,
                &pages,
                sal.current_lsn(),
                no_work_descriptor(),
                &QueryCtx::new(),
            )
            .unwrap();
        assert_eq!(out.len(), 12);
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.page_no, i as u32, "order must match the request");
        }
        let d = m.snapshot().since(&before);
        assert_eq!(d.net_read_requests, 3, "one sub-batch per slice");
        assert_eq!(d.pages_shipped_raw, 12);
    }

    #[test]
    fn batch_read_unknown_slice_fails() {
        let sal = Sal::new(test_cfg(), Metrics::shared());
        let r = sal.batch_read_ctx(
            SpaceId(9),
            &[0, 1],
            1,
            no_work_descriptor(),
            &QueryCtx::new(),
        );
        assert!(r.is_err());
    }

    /// Load 12 single-key pages over 3 slices into a fresh cluster.
    fn populated_sal(space: u32) -> (Arc<Metrics>, Arc<Sal>) {
        let m = Metrics::shared();
        let sal = Sal::new(test_cfg(), m.clone());
        let space = SpaceId(space);
        let mut recs = Vec::new();
        for no in 0..12u32 {
            sal.ensure_slice(SliceId::of(space, no, 4));
            recs.push(RedoRecord {
                lsn: 0,
                space,
                page_no: no,
                body: RedoBody::NewPage(leaf_image(space.0, no, &[no as i64])),
            });
        }
        sal.write_log(recs).unwrap();
        (m, sal)
    }

    #[test]
    fn read_page_fails_over_and_charges_per_attempt() {
        let (m, sal) = populated_sal(5);
        let space = SpaceId(5);
        let slice = SliceId::of(space, 0, 4);
        let replicas = sal.replicas_of(slice).unwrap();
        assert_eq!(replicas.len(), 2);
        sal.page_stores()[replicas[0]].set_fault(FaultPolicy::Poison);
        let before = m.snapshot();
        let p = sal
            .read_page_ctx(PageRef::new(space, 0), None, &QueryCtx::new())
            .unwrap();
        assert_eq!(p.n_recs(), 1);
        let d = m.snapshot().since(&before);
        assert_eq!(d.read_retries, 1, "one failover hop");
        assert_eq!(d.net_read_requests, 2, "both attempts are requests");
        assert_eq!(
            d.net_bytes_to_storage,
            2 * (REQ_HEADER_BYTES + PER_PAGE_ID_BYTES),
            "request bytes charged per attempted replica"
        );
        assert_eq!(d.pages_shipped_raw, 1, "result shipped once");
        sal.page_stores()[replicas[0]].set_fault(FaultPolicy::None);
    }

    #[test]
    fn batch_read_fails_over_to_surviving_replicas() {
        let (m, sal) = populated_sal(6);
        let space = SpaceId(6);
        let pages: Vec<PageNo> = (0..12).collect();
        let clean = sal
            .batch_read_ctx(
                space,
                &pages,
                sal.current_lsn(),
                no_work_descriptor(),
                &QueryCtx::new(),
            )
            .unwrap();
        // Kill one store: every slice placed on it must fail over.
        sal.page_stores()[0].set_fault(FaultPolicy::Poison);
        let before = m.snapshot();
        let out = sal
            .batch_read_ctx(
                space,
                &pages,
                sal.current_lsn(),
                no_work_descriptor(),
                &QueryCtx::new(),
            )
            .unwrap();
        let d = m.snapshot().since(&before);
        assert_eq!(out.len(), 12);
        for (i, (a, b)) in clean.iter().zip(&out).enumerate() {
            assert_eq!(a.page_no, b.page_no, "order preserved at {i}");
            assert_eq!(a.payload.byte_len(), b.payload.byte_len());
        }
        // With replication 2 over 3 stores, at least one of the 3 slices
        // is placed on store 0; rotation may or may not start there, so
        // retries are probabilistic per run — but *correctness* is not,
        // and a poisoned store never serves.
        assert_eq!(d.pages_shipped_raw, 12);
        sal.page_stores()[0].set_fault(FaultPolicy::None);
    }

    #[test]
    fn batch_read_retries_when_preferred_replica_is_down() {
        let (m, sal) = populated_sal(7);
        let space = SpaceId(7);
        // Poison every replica that any slice's rotation could start on
        // except one surviving store, so failover must happen for some
        // sub-batch: kill stores 0 and 1, leaving store 2.
        // (replication=2: every slice keeps at least one live replica
        // only if its placement includes store 2 — restrict the batch to
        // slices that do.)
        let mut served_by_2: Vec<PageNo> = Vec::new();
        for no in 0..12u32 {
            let reps = sal.replicas_of(SliceId::of(space, no, 4)).unwrap();
            if reps.contains(&2) {
                served_by_2.push(no);
            }
        }
        assert!(!served_by_2.is_empty(), "rr placement covers store 2");
        sal.page_stores()[0].set_fault(FaultPolicy::Poison);
        sal.page_stores()[1].set_fault(FaultPolicy::Poison);
        let before = m.snapshot();
        let out = sal
            .batch_read_ctx(
                space,
                &served_by_2,
                sal.current_lsn(),
                no_work_descriptor(),
                &QueryCtx::new(),
            )
            .unwrap();
        let d = m.snapshot().since(&before);
        assert_eq!(out.len(), served_by_2.len());
        // Every sub-batch whose rotated start hit a dead store retried;
        // all requests beyond one per sub-batch are retries.
        assert_eq!(
            d.net_read_requests - d.read_retries,
            served_by_2
                .iter()
                .map(|&no| SliceId::of(space, no, 4))
                .collect::<std::collections::HashSet<_>>()
                .len() as u64,
            "exactly one successful attempt per sub-batch"
        );
        for ps in sal.page_stores() {
            ps.set_fault(FaultPolicy::None);
        }
    }

    /// Sub-batches dispatch in the order of their slices' first pages, so
    /// which replica each one starts on is the same for the same read:
    /// with a store down, every fresh cluster retries the same number of
    /// times.
    #[test]
    fn sub_batch_dispatch_is_deterministic() {
        let retries: Vec<u64> = (0..20)
            .map(|_| {
                let (m, sal) = populated_sal(23);
                // Slices {0..3} and {4..7} both have a replica on store 1.
                sal.page_stores()[1].set_fault(FaultPolicy::Poison);
                let pages: Vec<PageNo> = (0..8).collect();
                let before = m.snapshot();
                sal.batch_read_ctx(
                    SpaceId(23),
                    &pages,
                    sal.current_lsn(),
                    no_work_descriptor(),
                    &QueryCtx::new(),
                )
                .unwrap();
                m.snapshot().since(&before).read_retries
            })
            .collect();
        assert!(retries.iter().all(|&r| r == retries[0]), "{retries:?}");
    }

    #[test]
    fn batch_read_fails_when_all_replicas_down() {
        let (_m, sal) = populated_sal(8);
        for ps in sal.page_stores() {
            ps.set_fault(FaultPolicy::Poison);
        }
        let r = sal.batch_read_ctx(
            SpaceId(8),
            &[0, 1],
            sal.current_lsn(),
            no_work_descriptor(),
            &QueryCtx::new(),
        );
        assert!(r.is_err(), "no replica left to serve");
        for ps in sal.page_stores() {
            ps.set_fault(FaultPolicy::None);
        }
    }

    /// `Sal::new` browns out the store `fault.store` names, and only that
    /// one; an index past the last store, or no latency, faults nothing.
    #[test]
    fn fault_config_browns_out_the_named_store_only() {
        let faults = |store: Option<usize>, latency_ms: u64| -> Vec<FaultPolicy> {
            let mut cfg = test_cfg();
            cfg.fault.store = store;
            cfg.fault.latency_ms = latency_ms;
            let sal = Sal::new(cfg, Metrics::shared());
            sal.page_stores().iter().map(|ps| ps.fault()).collect()
        };
        let got = faults(Some(1), 2);
        assert_eq!(got.len(), 3);
        for (i, f) in got.iter().enumerate() {
            match f {
                FaultPolicy::Latency(d) if i == 1 => assert_eq!(*d, Duration::from_millis(2)),
                FaultPolicy::None if i != 1 => {}
                other => panic!("store {i}: {other:?}"),
            }
        }
        for (store, latency_ms) in [(Some(3), 2), (Some(1), 0)] {
            let got = faults(store, latency_ms);
            assert!(
                got.iter().all(|f| matches!(f, FaultPolicy::None)),
                "store {store:?}, {latency_ms} ms: {got:?}"
            );
        }
    }

    #[test]
    fn transient_failures_get_backoff_retry_rounds() {
        let (m, sal) = populated_sal(20);
        for ps in sal.page_stores() {
            ps.set_fault(FaultPolicy::Poison);
        }
        let before = m.snapshot();
        // READ_RETRY_ROUNDS = 2. All replicas down with a
        // transient (InvalidState) error → a second sweep after backoff.
        let r = sal.read_page_ctx(PageRef::new(SpaceId(20), 0), None, &QueryCtx::new());
        assert!(r.is_err());
        let d = m.snapshot().since(&before);
        assert_eq!(d.read_backoff_waits, 1, "one backoff between two rounds");
        assert_eq!(
            d.net_read_requests, 4,
            "2 replicas swept twice, every attempt charged"
        );
        assert_eq!(d.read_retries, 3, "all attempts after the first");
        for ps in sal.page_stores() {
            ps.set_fault(FaultPolicy::None);
        }
        // NotFound is deterministic: no second round, no backoff.
        let before = m.snapshot();
        let r = sal.read_page_ctx(PageRef::new(SpaceId(20), 9999), None, &QueryCtx::new());
        assert!(matches!(r, Err(Error::NotFound(_))));
        let d = m.snapshot().since(&before);
        assert_eq!(d.read_backoff_waits, 0, "deterministic errors never retry");
    }

    #[test]
    fn expired_deadline_cuts_reads_off_and_is_metered() {
        let (m, sal) = populated_sal(21);
        let ctx = QueryCtx::for_tenant(5).with_budget_ms(1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let r = sal.read_page_ctx(PageRef::new(SpaceId(21), 0), None, &ctx);
        assert!(matches!(r, Err(Error::DeadlineExceeded(_))), "{r:?}");
        assert!(m.snapshot().deadline_exceeded >= 1);
        // The batch path honors the same deadline inside its dispatch.
        let pages: Vec<PageNo> = (0..12).collect();
        let r = sal.batch_read_ctx(
            SpaceId(21),
            &pages,
            sal.current_lsn(),
            no_work_descriptor(),
            &ctx,
        );
        assert!(matches!(r, Err(Error::DeadlineExceeded(_))), "{r:?}");
        // A fresh unexpired context reads normally.
        let ctx = QueryCtx::for_tenant(5).with_budget_ms(60_000);
        assert!(sal
            .read_page_ctx(PageRef::new(SpaceId(21), 0), None, &ctx)
            .is_ok());
    }

    #[test]
    fn batch_reads_bill_the_context_tenant() {
        let (m, sal) = populated_sal(22);
        let ctx = QueryCtx::for_tenant(42);
        let pages: Vec<PageNo> = (0..12).collect();
        // Force store-level shed so the tenant's pages_shed counter moves
        // (a no-work descriptor never submits NDP jobs).
        for ps in sal.page_stores() {
            ps.set_force_shed(true);
        }
        let desc = Arc::new(
            NdpDescriptor {
                index_id: 7,
                record_dtypes: vec![DataType::BigInt],
                key_positions: vec![0],
                projection: Some(vec![0]),
                predicate_bitcode: None,
                aggregation: None,
                low_watermark: 100,
            }
            .encode(),
        );
        let out = sal
            .batch_read_ctx(SpaceId(22), &pages, sal.current_lsn(), desc, &ctx)
            .unwrap();
        assert_eq!(out.len(), 12);
        assert!(
            out.iter().all(|r| matches!(r.payload, PagePayload::Raw(_))),
            "shed batches ship raw"
        );
        let shed = m.tenants.tenant(42).pages_shed.load(Ordering::Relaxed);
        assert_eq!(shed, 12, "all shed pages billed to tenant 42");
        assert_eq!(m.snapshot().ps_ndp_shed, 12);
        for ps in sal.page_stores() {
            ps.set_force_shed(false);
        }
    }

    #[test]
    fn streaming_handle_delivers_all_sub_batches_then_none() {
        let (m, sal) = populated_sal(10);
        let space = SpaceId(10);
        let pages: Vec<PageNo> = (0..12).collect();
        let before = m.snapshot();
        let mut handle = sal
            .batch_read_streaming_ctx(
                space,
                &pages,
                sal.current_lsn(),
                no_work_descriptor(),
                &QueryCtx::new(),
            )
            .unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut subs = 0;
        while let Some(sub) = handle.recv() {
            subs += 1;
            for pr in sub.unwrap() {
                assert!(seen.insert(pr.page_no), "page delivered exactly once");
            }
        }
        assert_eq!(subs, 3, "one delivery per slice sub-batch");
        assert_eq!(seen.len(), 12);
        let d = m.snapshot().since(&before);
        assert_eq!(d.pages_shipped_raw, 12);
    }

    #[test]
    fn dropping_streaming_handle_joins_dispatch_threads() {
        let (_m, sal) = populated_sal(11);
        let space = SpaceId(11);
        let pages: Vec<PageNo> = (0..12).collect();
        let mut handle = sal
            .batch_read_streaming_ctx(
                space,
                &pages,
                sal.current_lsn(),
                no_work_descriptor(),
                &QueryCtx::new(),
            )
            .unwrap();
        // Take one sub-batch, then abandon the read mid-flight.
        let first = handle.recv().unwrap().unwrap();
        assert!(!first.is_empty());
        drop(handle); // must join all dispatch threads, not hang or leak
                      // A subsequent read on the same SAL works normally.
        let out = sal
            .batch_read_ctx(
                space,
                &pages,
                sal.current_lsn(),
                no_work_descriptor(),
                &QueryCtx::new(),
            )
            .unwrap();
        assert_eq!(out.len(), 12);
    }
}
