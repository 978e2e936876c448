//! The network serving layer: the process shape the paper assumes.
//!
//! Taurus compute nodes are client-facing front ends over shared Log
//! and Page Stores; PR 5's read replicas made extra *engines*, and this
//! crate makes them extra *serving capacity*. A [`Server`] owns the
//! master plus any attached replicas, accepts TCP sessions, and speaks
//! `taurus-protocol` frames:
//!
//! - **Sessions** are threads (the repo is deliberately async-free):
//!   one accept loop, one thread per connection, bounded by
//!   `server.max_sessions` (excess connections get an error frame) with
//!   a permit [`Gate`] bounding concurrently *executing* queries at
//!   `server.worker_threads`.
//! - **Routing** is lag-aware and sticky: reads rotate across the
//!   master and every replica that is currently serveable
//!   (`check_serveable`: attached and within `replica.max_lag_lsn`)
//!   *and* whose visible LSN has reached the connection's last commit
//!   LSN — so a client always reads its own writes. A replica that
//!   refuses between routing and execution is retried on the master
//!   transparently (`server_failovers` counts these).
//! - **Results** stream: a query runs on its session's thread, and each
//!   batch its pipeline emits is encoded straight into one RowBatch
//!   frame from inside the query's sink. A client that disconnects
//!   mid-stream makes the socket write fail, the sink answers `false`,
//!   and the existing backpressure path cancels the producing scan and
//!   frees its NDP frames.
//!
//! [`client::Client`] is the matching blocking client; the
//! `taurus-server` / `taurus-smoke` binaries wrap both around the TPC-H
//! suite.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use taurus_common::{Error, Metrics, Result, ServerConfig};
use taurus_ndp::TaurusDb;
use taurus_optimizer::plan::Plan;
use taurus_protocol::{encode_error, Message};
use taurus_replica::Replica;

pub mod client;
mod router;
mod serve;

pub use client::{Client, QueryReply};
pub use router::Router;

/// A named-plan entry: the same function shape the TPC-H registry uses
/// (`fn(&TaurusDb, pq_degree) -> Plan`).
pub type PlanFn = fn(&TaurusDb, Option<usize>) -> Result<Plan>;

/// Plans servable by name via `QueryRequest::Named`.
#[derive(Default, Clone)]
pub struct PlanRegistry {
    plans: HashMap<String, PlanFn>,
}

impl PlanRegistry {
    pub fn new() -> PlanRegistry {
        PlanRegistry::default()
    }

    pub fn register(&mut self, name: &str, f: PlanFn) {
        self.plans.insert(name.to_string(), f);
    }

    pub fn get(&self, name: &str) -> Option<PlanFn> {
        self.plans.get(name).copied()
    }

    pub fn names(&self) -> Vec<String> {
        let mut ns: Vec<String> = self.plans.keys().cloned().collect();
        ns.sort();
        ns
    }
}

/// The whole TPC-H suite (all 22 queries + the §VII-A micro queries) as
/// a registry — what the `taurus-server` binary serves.
pub fn tpch_registry() -> PlanRegistry {
    let mut reg = PlanRegistry::new();
    for q in taurus_tpch::tpch_queries() {
        reg.register(q.name, q.plan);
    }
    for q in taurus_tpch::micro_queries() {
        reg.register(q.name, q.plan);
    }
    reg
}

/// A counting-semaphore worker pool: at most `max` permits out at once.
/// Sessions block here before executing a query, so `max_sessions`
/// connections never mean `max_sessions` concurrent scans.
pub struct Gate {
    max: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    held: usize,
    waiting: usize,
}

impl Gate {
    pub fn new(max: usize) -> Gate {
        Gate {
            max: max.max(1),
            state: Mutex::new(GateState {
                held: 0,
                waiting: 0,
            }),
            cv: Condvar::new(),
        }
    }

    pub fn acquire(&self) -> GatePermit<'_> {
        // lint:allow(panic): gate mutex poisoned only if a permit holder panicked
        let mut st = self.state.lock().unwrap();
        while st.held >= self.max {
            // lint:allow(panic): same poisoned-mutex reasoning as the lock above
            st = self.cv.wait(st).unwrap();
        }
        st.held += 1;
        GatePermit { gate: self }
    }

    /// Queue-depth-aware acquire: block like [`Gate::acquire`], but only
    /// if fewer than `max_waiting` callers are already parked. Beyond
    /// that the server is genuinely behind, and queueing deeper only
    /// converts overload into latency — refuse with the *retryable*
    /// [`Error::Overloaded`] instead so well-behaved clients back off.
    pub fn acquire_bounded(&self, max_waiting: usize) -> Result<GatePermit<'_>> {
        // lint:allow(panic): gate mutex poisoned only if a permit holder panicked
        let mut st = self.state.lock().unwrap();
        if st.held >= self.max {
            if st.waiting >= max_waiting {
                return Err(Error::Overloaded(format!(
                    "query gate saturated: {} executing, {} queued (limit {max_waiting}); \
                     retry with backoff",
                    st.held, st.waiting
                )));
            }
            st.waiting += 1;
            while st.held >= self.max {
                // lint:allow(panic): same poisoned-mutex reasoning as the lock above
                st = self.cv.wait(st).unwrap();
            }
            st.waiting -= 1;
        }
        st.held += 1;
        Ok(GatePermit { gate: self })
    }

    /// Queued callers right now (for tests and introspection).
    pub fn waiting(&self) -> usize {
        // lint:allow(panic): gate mutex poisoned only if a permit holder panicked
        self.state.lock().unwrap().waiting
    }
}

/// RAII permit from [`Gate::acquire`].
pub struct GatePermit<'a> {
    gate: &'a Gate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        // lint:allow(panic): drop must rebalance the gate; poisoning is already fatal
        let mut st = self.gate.state.lock().unwrap();
        st.held -= 1;
        drop(st);
        self.gate.cv.notify_one();
    }
}

/// Shared server state: router, registry, knobs, permit gate.
pub struct ServerState {
    pub(crate) router: Router,
    pub(crate) registry: PlanRegistry,
    pub(crate) cfg: ServerConfig,
    pub(crate) gate: Gate,
    pub(crate) live_sessions: AtomicUsize,
    pub(crate) shutdown: AtomicBool,
}

impl ServerState {
    pub(crate) fn new(
        master: Arc<TaurusDb>,
        replicas: Vec<Arc<Replica>>,
        registry: PlanRegistry,
    ) -> ServerState {
        let cfg = master.config().server.clone();
        ServerState {
            router: Router::new(master, replicas),
            registry,
            gate: Gate::new(cfg.worker_threads),
            cfg,
            live_sessions: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Counters live on the master's metrics (one scrape covers the
    /// serving layer; per-replica engine metrics are prefixed in STATS).
    pub(crate) fn metrics(&self) -> &Arc<Metrics> {
        self.router.master_ref().metrics()
    }
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Bind `master.config().server.listen_addr` and start serving.
    /// Replicas passed here become routable read nodes (node id =
    /// position + 1; the master is node 0).
    pub fn start(
        master: &Arc<TaurusDb>,
        replicas: Vec<Arc<Replica>>,
        registry: PlanRegistry,
    ) -> Result<ServerHandle> {
        let state = Arc::new(ServerState::new(master.clone(), replicas, registry));
        let listener = TcpListener::bind(&state.cfg.listen_addr).map_err(|e| {
            Error::InvalidState(format!("cannot bind {}: {e}", state.cfg.listen_addr))
        })?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| Error::InvalidState(format!("local_addr: {e}")))?;
        let accept = {
            let state = state.clone();
            std::thread::Builder::new()
                .name("taurus-accept".into())
                .spawn(move || accept_loop(listener, state))
                .map_err(|e| Error::InvalidState(format!("spawn accept loop: {e}")))?
        };
        Ok(ServerHandle {
            local_addr,
            state,
            accept: Some(accept),
        })
    }
}

/// A running server; dropping it stops the accept loop (live sessions
/// drain as their clients disconnect or idle out).
pub struct ServerHandle {
    local_addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn master(&self) -> Arc<TaurusDb> {
        self.state.router.master_db()
    }

    /// Sessions currently connected.
    pub fn live_sessions(&self) -> usize {
        self.state.live_sessions.load(Ordering::SeqCst)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, state: Arc<ServerState>) {
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let n = state.live_sessions.fetch_add(1, Ordering::SeqCst) + 1;
        if n > state.cfg.max_sessions {
            state.live_sessions.fetch_sub(1, Ordering::SeqCst);
            refuse_session(&state, stream);
            continue;
        }
        state
            .metrics()
            .gauge_inc(|m| &m.server_sessions, |m| &m.server_sessions_peak);
        let st = state.clone();
        let spawned = std::thread::Builder::new()
            .name("taurus-session".into())
            .spawn(move || {
                serve::serve_connection(stream, &st);
                st.live_sessions.fetch_sub(1, Ordering::SeqCst);
                st.metrics().sub(|m| &m.server_sessions, 1);
            });
        if spawned.is_err() {
            state.live_sessions.fetch_sub(1, Ordering::SeqCst);
            state.metrics().sub(|m| &m.server_sessions, 1);
        }
    }
}

/// Answer an over-cap connection with a retryable Overloaded frame,
/// then close it.
fn refuse_session(state: &ServerState, stream: TcpStream) {
    state.metrics().add(|m| &m.server_sessions_refused, 1);
    let e = Error::Overloaded(format!(
        "server at max_sessions ({}); retry later",
        state.cfg.max_sessions
    ));
    let (code, message) = encode_error(&e);
    let mut w = std::io::BufWriter::new(stream);
    let _ = Message::Error { code, message }.write(&mut w);
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn gate_bounds_concurrency() {
        let gate = Arc::new(Gate::new(2));
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (gate, peak, cur) = (gate.clone(), peak.clone(), cur.clone());
                std::thread::spawn(move || {
                    let _p = gate.acquire();
                    let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(10));
                    cur.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "gate leaked permits");
    }

    #[test]
    fn gate_refuses_beyond_queue_depth() {
        let gate = Arc::new(Gate::new(1));
        let p1 = gate.acquire();
        // One caller may park...
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                let _p = gate
                    .acquire_bounded(1)
                    .expect("first waiter fits the queue");
            })
        };
        while gate.waiting() < 1 {
            std::thread::yield_now();
        }
        // ...the next is refused with the retryable Overloaded error.
        let refused = gate.acquire_bounded(1);
        assert!(
            matches!(refused, Err(Error::Overloaded(_))),
            "expected Overloaded refusal"
        );
        drop(refused);
        drop(p1);
        waiter.join().unwrap();
    }

    #[test]
    fn tpch_registry_serves_all_queries() {
        let reg = tpch_registry();
        let names = reg.names();
        for q in 1..=22 {
            assert!(names.contains(&format!("Q{q}")), "missing Q{q}");
        }
        assert!(reg.get("Q6").is_some());
        assert!(reg.get("nope").is_none());
        // Micro-benchmark plans ride along.
        assert!(names.len() > 22, "micro queries registered too: {names:?}");
    }
}
