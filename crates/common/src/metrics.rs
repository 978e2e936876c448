//! Cluster-wide metrics: the quantities the paper's figures are made of.
//!
//! *Network* counters are incremented exactly once per transfer, at the SAL
//! boundary (`taurus-sal`), so "bytes from storage" means what Fig. 5/7 mean.
//! *Compute CPU* is measured with `CLOCK_THREAD_CPUTIME_ID` on compute-node
//! threads only (query thread + PQ workers); Page Store worker pools
//! accumulate into the separate `ps_cpu_ns`, reproducing the paper's
//! "CPU time on the SQL node" vs. storage-side split.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Read the calling thread's consumed CPU time in nanoseconds.
///
/// Blocking (channel waits, simulated network sleeps) does not accumulate,
/// which is precisely why the paper's "CPU freed on the SQL node" effect is
/// directly observable in-process.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: ts is a valid out-pointer; CLOCK_THREAD_CPUTIME_ID is portable
    // on Linux which is the only supported bench platform.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// RAII guard adding the enclosed region's thread-CPU time to a counter.
pub struct CpuGuard<'a> {
    counter: &'a AtomicU64,
    start: u64,
}

impl<'a> CpuGuard<'a> {
    pub fn new(counter: &'a AtomicU64) -> Self {
        CpuGuard {
            counter,
            start: thread_cpu_ns(),
        }
    }
}

impl Drop for CpuGuard<'_> {
    fn drop(&mut self) {
        let end = thread_cpu_ns();
        self.counter
            .fetch_add(end.saturating_sub(self.start), Ordering::Relaxed);
    }
}

macro_rules! metrics_struct {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Live atomic counters, shared via `Arc` across the whole cluster.
        #[derive(Default, Debug)]
        pub struct Metrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Per-tenant governance counters, keyed by [`crate::TenantId`]
            /// and materialized lazily on first touch. Not part of
            /// [`MetricsSnapshot`] (which stays `Copy`); rendered as
            /// trailing `tenant{id}.name value` lines by `render_text`.
            pub tenants: TenantRegistry,
        }

        /// A point-in-time copy of [`Metrics`]; supports subtraction to get
        /// per-query deltas.
        #[derive(Clone, Copy, Default, Debug, PartialEq)]
        pub struct MetricsSnapshot {
            $(pub $name: u64,)*
        }

        impl Metrics {
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl Metrics {
            /// Render every counter as one `name value` line, in
            /// declaration order — a stable scrape format (the network
            /// server's STATS opcode serves exactly this), so operators
            /// and load tests read `replica_lag_lsn` or
            /// `prefetch_stall_ns` without linking the library. Tenants
            /// touched since startup append `tenant{id}.name value`
            /// lines after the fixed counters (same two-token shape).
            pub fn render_text(&self) -> String {
                let mut out = self.snapshot().render_text();
                self.tenants.render_into(&mut out);
                out
            }
        }

        impl MetricsSnapshot {
            /// Counter-wise `self - earlier` (saturating).
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }

            /// See [`Metrics::render_text`].
            pub fn render_text(&self) -> String {
                use std::fmt::Write;
                let mut out = String::new();
                $(let _ = writeln!(out, "{} {}", stringify!($name), self.$name);)*
                out
            }
        }
    };
}

metrics_struct! {
    /// Bytes sent compute -> storage (requests, redo, descriptors).
    net_bytes_to_storage,
    /// Bytes received storage -> compute (pages, NDP pages, log acks).
    net_bytes_from_storage,
    /// Read requests issued to Page Stores (batch = 1 request per
    /// sub-batch). Charged per *attempt*: a failed-over read counts once
    /// per replica tried, so wire accounting stays honest.
    net_read_requests,
    /// Read attempts beyond the first replica (failover retries, both the
    /// single-page path and NDP sub-batch dispatch).
    read_retries,
    /// Raw (unprocessed) pages shipped to the compute node.
    pages_shipped_raw,
    /// NDP-processed pages shipped to the compute node.
    pages_shipped_ndp,
    /// Empty-after-filtering NDP pages (shipped as header-only markers).
    pages_shipped_empty,
    /// Compute-node CPU nanoseconds (query threads + PQ workers).
    compute_cpu_ns,
    /// Rows delivered by scans to the executor, counted at batch
    /// granularity when each batch is handed over (a consumer stopping
    /// mid-batch still received the whole batch; a scan erroring out
    /// still counts what it delivered before the error).
    rows_scanned,
    /// Rows delivered inside scan-result batches (amortization
    /// numerator; equals `rows_scanned` by construction — both are
    /// charged at flush time, on every path).
    rows_batched,
    /// Scan-result batches handed to consumers (amortization denominator;
    /// empty batches are never emitted).
    batches_emitted,
    /// Rows emitted by executor pipeline operators, charged at each
    /// operator's emit site (`next_batch` returning a batch). One row
    /// flowing through k operators counts k times — this is a pipeline
    /// *traffic* counter, not a result-row counter.
    operator_rows,
    /// Batches emitted by executor pipeline operators (traffic
    /// denominator for `operator_rows`; empty batches are never emitted).
    operator_batches,
    /// Pages whose NDP processing had to be completed by InnoDB on the
    /// compute node (raw fallback, cache-copied, or ambiguous-heavy).
    ndp_completed_on_compute,
    /// Records returned as ambiguous by Page Stores (visibility unresolved).
    ambiguous_records,
    /// Buffer pool hits / misses / evictions.
    bp_hits,
    bp_misses,
    bp_evictions,
    /// NDP frames currently allocated from the free list (gauge-ish).
    bp_ndp_frames,
    /// NDP leaf batches currently in flight in prefetching scans (gauge:
    /// incremented when a batch read is dispatched, decremented when the
    /// batch is fully consumed or the scan is cancelled). ≥ 2 while a
    /// double-buffered scan overlaps fetch with consumption.
    ndp_batches_in_flight,
    /// High-water mark of `ndp_batches_in_flight` (monotone; the direct
    /// observable for "batch N+1 was on the wire while batch N drained").
    ndp_batches_in_flight_peak,
    /// Nanoseconds NDP scan consumers spent blocked waiting for a
    /// prefetched page that had not arrived yet (0 = storage fully hid
    /// behind compute; large = the scan is storage-bound).
    prefetch_stall_ns,
    /// NDP batch requests currently being served across all Page Stores
    /// (gauge) and its high-water mark — the storage-side view of the
    /// same overlap: > slice-fan-out peak means requests from different
    /// leaf batches overlapped inside the stores.
    ps_requests_in_flight,
    ps_requests_in_flight_peak,
    /// Page Store: pages NDP-processed in storage.
    ps_pages_processed,
    /// Page Store: NDP requests skipped due to resource control (pages).
    ps_ndp_skipped,
    /// Page Store: worker CPU nanoseconds.
    ps_cpu_ns,
    /// Page Store: descriptor cache hits / misses.
    ps_desc_cache_hits,
    ps_desc_cache_misses,
    /// Page Store: nanoseconds spent decoding + compiling descriptors.
    ps_desc_decode_ns,
    /// Log Store: bytes appended (sum over replicas).
    log_bytes_appended,
    /// Wall nanoseconds spent flushing redo batches to the Log Stores
    /// (the triplicate-append fan-out on the commit path); divided by
    /// `log_flushes`, the commit-latency contribution of log durability.
    log_flush_ns,
    /// Number of `write_log` flushes (denominator for `log_flush_ns`).
    log_flushes,
    /// Replica: newest transaction-consistent LSN this node serves
    /// (absolute gauge, written by the log tailer at every boundary).
    replica_visible_lsn,
    /// Replica: master LSN minus visible LSN, sampled at every tailer
    /// pass (absolute gauge — the staleness the `max_lag` contract is
    /// about).
    replica_lag_lsn,
    /// Replica: log-batch bytes decoded and applied by the tailer.
    replica_apply_bytes,
    /// Replica: nanoseconds the tailer spent sleeping while *behind* the
    /// master (log records existed that it had not applied yet — e.g.
    /// waiting out an LSN gap while a master write_log is mid-append).
    /// Time spent idle while fully caught up does not count.
    replica_catchup_stall_ns,
    /// Records filtered out inside Page Stores (never shipped).
    ps_records_filtered,
    /// Records aggregated away inside Page Stores.
    ps_records_aggregated,
    /// Server: sessions currently connected (gauge) and its high-water
    /// mark.
    server_sessions,
    server_sessions_peak,
    /// Server: connections refused at the `server.max_sessions` cap.
    server_sessions_refused,
    /// Server: read queries served over the wire (named plans, builder
    /// requests and point lookups).
    server_queries,
    /// Server: DML statements committed over the wire.
    server_dml,
    /// Server: result rows / result-batch frames / frame payload bytes
    /// sent to clients.
    server_rows_sent,
    server_batches_sent,
    server_bytes_sent,
    /// Server: error frames sent to clients.
    server_errors_sent,
    /// Server: reads routed to the master / to a replica (the routing
    /// outcome, counted at node selection).
    server_routed_master,
    server_routed_replica,
    /// Server: reads that started on a replica and were transparently
    /// re-run on the master after the replica refused (detached or past
    /// its lag bound between routing and execution).
    server_failovers,
    /// Page Store: pages degraded to raw by the *store-level* shed
    /// decision (saturated NDP queue or forced shed) — the whole batch
    /// falls back to compute, distinct from per-page `ps_ndp_skipped`.
    ps_ndp_shed,
    /// Page Store: NDP jobs refused because the requesting tenant was at
    /// its admission quota (the page still ships raw; nothing fails).
    ps_ndp_quota_rejected,
    /// SAL: jittered backoff sleeps taken between replica retry rounds.
    read_backoff_waits,
    /// Reads/queries aborted because their deadline budget expired.
    deadline_exceeded,
    /// Server: queries refused with the retryable `Overloaded` error
    /// because the worker-permit gate's wait queue was full.
    server_overload_refused,
    /// Retired, always 0. It counted the rows the columnar `Filter`
    /// evaluated column at a time, the only site that ever charged it;
    /// that path is deleted (one batch layout, `RowBatch`). Still
    /// declared because `STATS` is scraped by position, the metrics
    /// manifest is append-only and `benchmark/` reads it.
    vector_eval_rows,
    /// Retired, always 0: the survivor percentage of the columnar
    /// `Filter`'s last batch (a gauge). Still declared for the same
    /// reasons as `vector_eval_rows`.
    selection_density_pct,
    /// Server: SQL-text queries received over the wire (tag-4 payloads,
    /// including EXPLAIN).
    sql_queries,
    /// Server: SQL-text queries refused with a positioned parse/bind
    /// diagnostic (wire error code 1) before any operator opened.
    sql_parse_errors,
    /// Lookup joins: leaf pages brought in by batched key access (each
    /// also one `bp_misses`: it had to come from storage), and the batch
    /// reads that fetched them. pages / reads = pages per storage round
    /// trip where the per-row probe paid one round trip per page.
    lookup_prefetch_pages,
    lookup_prefetch_reads,
    /// Lookup joins: leaf pages taken by NDP key reads (the batched read
    /// sent with a descriptor and the chunk's probe keys; what comes back
    /// goes to the join and never enters the pool, so none is a
    /// `bp_misses`), and the batch reads that carried them.
    lookup_ndp_pages,
    lookup_ndp_reads,
    /// Page Store: records dropped for matching no key of a request's key
    /// set, before visibility, predicate and projection.
    ps_records_key_filtered,
    /// Page Store: definitely visible records dropped by a request's join
    /// filter (key column NULL or not in the filter).
    ps_records_join_filtered,
    /// Hash joins: probe scans that sent a join filter with their batch
    /// reads, and the distinct build keys those filters were built over.
    join_filters_sent,
    join_filter_keys,
    /// Threads statements spawned on the SQL node: scan producers, PQ
    /// workers and SAL sub-batch dispatches (one each). A query's own
    /// operators run on the thread that asks for its rows.
    sql_threads_spawned,
    /// Page Store: groups complete on their page whose outputs did not
    /// make a pushed HAVING `True`, dropped with their carriers.
    ps_groups_dropped_by_having,
    /// Page Store: records placed on the NDP pages that replaced raw ones
    /// in a reply (survivors, carriers and ambiguous records alike; a
    /// degraded unit ships raw pages and counts nothing).
    ps_ndp_records_shipped,
}

/// Per-tenant governance counters: who is consuming NDP admission and
/// who is being bounded. Tiny and fixed-shape — a registry entry is
/// created on a tenant's first metered action and lives for the process.
#[derive(Default, Debug)]
pub struct TenantCounters {
    /// Queries attributed to this tenant at the serving layer.
    pub queries: AtomicU64,
    /// NDP jobs admitted to a Page Store pool for this tenant.
    pub ndp_admitted: AtomicU64,
    /// NDP jobs refused at this tenant's admission quota.
    pub ndp_quota_rejected: AtomicU64,
    /// Pages degraded to raw for this tenant by store-level shed.
    pub pages_shed: AtomicU64,
}

/// Lazily-populated map of [`TenantCounters`] keyed by tenant id. Lives
/// inside [`Metrics`] but outside [`MetricsSnapshot`]: the snapshot stays
/// a flat `Copy` struct, while tenants render as trailing scrape lines.
#[derive(Default, Debug)]
pub struct TenantRegistry {
    inner: std::sync::RwLock<std::collections::BTreeMap<crate::TenantId, Arc<TenantCounters>>>,
}

impl TenantRegistry {
    /// The counters for `tenant`, created on first touch.
    pub fn tenant(&self, tenant: crate::TenantId) -> Arc<TenantCounters> {
        if let Some(c) = self.inner.read().unwrap().get(&tenant) {
            return c.clone();
        }
        self.inner
            .write()
            .unwrap()
            .entry(tenant)
            .or_default()
            .clone()
    }

    /// Tenant ids seen so far (sorted).
    pub fn ids(&self) -> Vec<crate::TenantId> {
        self.inner.read().unwrap().keys().copied().collect()
    }

    /// Append `tenant{id}.name value` lines (same two-token shape as the
    /// fixed counters; scrape parsers need no special casing).
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write;
        for (id, c) in self.inner.read().unwrap().iter() {
            let _ = writeln!(
                out,
                "tenant{id}.queries {}",
                c.queries.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "tenant{id}.ndp_admitted {}",
                c.ndp_admitted.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "tenant{id}.ndp_quota_rejected {}",
                c.ndp_quota_rejected.load(Ordering::Relaxed)
            );
            let _ = writeln!(
                out,
                "tenant{id}.pages_shed {}",
                c.pages_shed.load(Ordering::Relaxed)
            );
        }
    }
}

impl Metrics {
    pub fn shared() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    pub fn add(&self, f: impl Fn(&Metrics) -> &AtomicU64, v: u64) {
        f(self).fetch_add(v, Ordering::Relaxed);
    }

    /// Decrement a gauge-style counter (in-flight counts). Saturating in
    /// spirit: gauges are only decremented by the guard that incremented
    /// them, so they never underflow in correct code.
    pub fn sub(&self, f: impl Fn(&Metrics) -> &AtomicU64, v: u64) {
        f(self).fetch_sub(v, Ordering::Relaxed);
    }

    /// Overwrite an absolute gauge (e.g. `replica_visible_lsn`): unlike
    /// the additive counters, these report the *current* value of some
    /// external quantity.
    pub fn set(&self, f: impl Fn(&Metrics) -> &AtomicU64, v: u64) {
        f(self).store(v, Ordering::Relaxed);
    }

    /// Increment a gauge and record its high-water mark in `peak`.
    /// Returns the gauge value after the increment.
    pub fn gauge_inc(
        &self,
        gauge: impl Fn(&Metrics) -> &AtomicU64,
        peak: impl Fn(&Metrics) -> &AtomicU64,
    ) -> u64 {
        let now = gauge(self).fetch_add(1, Ordering::Relaxed) + 1;
        peak(self).fetch_max(now, Ordering::Relaxed);
        now
    }
}

impl MetricsSnapshot {
    /// Percentage reduction of `get(self)` relative to `get(baseline)`:
    /// the formula behind every "reduction" figure in §VII.
    pub fn reduction_pct(
        &self,
        baseline: &MetricsSnapshot,
        get: impl Fn(&MetricsSnapshot) -> u64,
    ) -> f64 {
        let b = get(baseline);
        if b == 0 {
            return 0.0;
        }
        (1.0 - get(self) as f64 / b as f64) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let m = Metrics::default();
        m.net_bytes_from_storage.store(100, Ordering::Relaxed);
        let s1 = m.snapshot();
        m.net_bytes_from_storage.fetch_add(250, Ordering::Relaxed);
        m.pages_shipped_ndp.fetch_add(3, Ordering::Relaxed);
        let d = m.snapshot().since(&s1);
        assert_eq!(d.net_bytes_from_storage, 250);
        assert_eq!(d.pages_shipped_ndp, 3);
        assert_eq!(d.net_bytes_to_storage, 0);
    }

    #[test]
    fn gauge_inc_tracks_peak() {
        let m = Metrics::default();
        let inc = |m: &Metrics| {
            m.gauge_inc(
                |m| &m.ndp_batches_in_flight,
                |m| &m.ndp_batches_in_flight_peak,
            )
        };
        assert_eq!(inc(&m), 1);
        assert_eq!(inc(&m), 2);
        m.sub(|m| &m.ndp_batches_in_flight, 1);
        assert_eq!(inc(&m), 2);
        m.sub(|m| &m.ndp_batches_in_flight, 1);
        m.sub(|m| &m.ndp_batches_in_flight, 1);
        let s = m.snapshot();
        assert_eq!(s.ndp_batches_in_flight, 0, "gauge balanced");
        assert_eq!(s.ndp_batches_in_flight_peak, 2, "peak sticks");
    }

    #[test]
    fn render_text_is_stable_name_value_lines() {
        let m = Metrics::default();
        m.net_bytes_to_storage.store(7, Ordering::Relaxed);
        m.server_sessions.store(3, Ordering::Relaxed);
        let text = m.render_text();
        // Declaration order: the first line is the first declared field.
        assert!(text.starts_with("net_bytes_to_storage 7\n"), "{text}");
        assert!(text.contains("\nserver_sessions 3\n"));
        assert!(text.contains("\nndp_batches_in_flight 0\n"));
        // Every line is exactly `name value`.
        for line in text.lines() {
            let mut parts = line.split(' ');
            assert!(parts.next().is_some_and(|n| !n.is_empty()));
            assert!(parts.next().is_some_and(|v| v.parse::<u64>().is_ok()));
            assert_eq!(parts.next(), None, "extra tokens in `{line}`");
        }
        assert_eq!(
            text.lines().count(),
            Metrics::default().render_text().lines().count()
        );
    }

    #[test]
    fn tenant_counters_render_as_trailing_two_token_lines() {
        let m = Metrics::default();
        // Untouched registry: rendering is identical to the snapshot's.
        assert_eq!(m.render_text(), m.snapshot().render_text());
        m.tenants.tenant(7).queries.fetch_add(3, Ordering::Relaxed);
        m.tenants
            .tenant(2)
            .ndp_quota_rejected
            .fetch_add(1, Ordering::Relaxed);
        // Same Arc on re-touch, not a fresh counter.
        m.tenants.tenant(7).queries.fetch_add(1, Ordering::Relaxed);
        assert_eq!(m.tenants.ids(), vec![2, 7]);
        let text = m.render_text();
        assert!(text.contains("\ntenant7.queries 4\n"), "{text}");
        assert!(text.contains("\ntenant2.ndp_quota_rejected 1\n"));
        // Tenant lines come after every fixed counter, sorted by id.
        let t2 = text.find("tenant2.").unwrap();
        let t7 = text.find("tenant7.").unwrap();
        assert!(t2 < t7);
        assert!(text.rfind("server_overload_refused").unwrap() < t2);
        // Still strictly `name value` per line.
        for line in text.lines() {
            assert_eq!(line.split(' ').count(), 2, "`{line}`");
        }
    }

    /// Spin until the thread-CPU clock visibly advances (its resolution can
    /// be coarse on some kernels), bounded so a broken clock still fails.
    fn burn_until_tick() {
        let a = thread_cpu_ns();
        let mut x = 1u64;
        for i in 0..200_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            if i % 1_000_000 == 0 && thread_cpu_ns() > a {
                std::hint::black_box(x);
                return;
            }
        }
        std::hint::black_box(x);
        panic!("thread CPU clock did not advance after heavy spinning");
    }

    #[test]
    fn thread_cpu_clock_advances_under_load() {
        burn_until_tick();
    }

    #[test]
    fn cpu_guard_accumulates() {
        let c = AtomicU64::new(0);
        {
            let _g = CpuGuard::new(&c);
            burn_until_tick();
        }
        assert!(c.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn reduction_pct_formula() {
        let base = MetricsSnapshot {
            net_bytes_from_storage: 1000,
            ..Default::default()
        };
        let ndp = MetricsSnapshot {
            net_bytes_from_storage: 10,
            ..Default::default()
        };
        let r = ndp.reduction_pct(&base, |s| s.net_bytes_from_storage);
        assert!((r - 99.0).abs() < 1e-9);
    }
}
