//! The simulated compute↔storage network.
//!
//! All bytes crossing the SAL boundary are metered here — this is the
//! single source of truth for the paper's "network traffic" axis (Fig. 5,
//! Fig. 7). Optionally a shared bandwidth limiter models the 25 Gbps NIC
//! of §VII-A: transfers share a common medium, so a 32-way parallel raw
//! scan becomes I/O-bound exactly like the paper's "must each transfer
//! about 950 GB … and bottleneck on I/O".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use taurus_common::{Metrics, NetworkConfig};

/// Transfer direction, for metering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    ToStorage,
    FromStorage,
}

/// Shared-medium rate limiter modelling the NIC as a processor-sharing
/// queue: every in-flight transfer gets an equal share of the wire, so a
/// transfer's duration is `bytes / (rate / n)` with `n` the number of
/// concurrent transfers when it starts. A switched full-duplex NIC
/// interleaves flows at packet granularity — a FIFO reservation queue
/// (the previous model) would park a tenant's 4 KB result frame behind
/// megabytes of another tenant's bulk pages, and that head-of-line
/// artifact, not real contention, would defeat the admission-control
/// isolation of §IV-D2.
struct RateLimiter {
    bytes_per_sec: u64,
    in_flight: AtomicU64,
}

impl RateLimiter {
    fn acquire(&self, bytes: u64) {
        let n = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        let dur = Duration::from_secs_f64(bytes as f64 * n as f64 / self.bytes_per_sec as f64);
        std::thread::sleep(dur);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The metered (and optionally rate-limited) network.
pub struct Network {
    limiter: Option<RateLimiter>,
    metrics: Arc<Metrics>,
}

impl Network {
    pub fn new(cfg: &NetworkConfig, metrics: Arc<Metrics>) -> Arc<Network> {
        Arc::new(Network {
            limiter: cfg.bandwidth_bytes_per_sec.map(|b| RateLimiter {
                bytes_per_sec: b.max(1),
                in_flight: AtomicU64::new(0),
            }),
            metrics,
        })
    }

    /// Account (and, if configured, pace) one transfer.
    pub fn transfer(&self, direction: Direction, bytes: u64) {
        match direction {
            Direction::ToStorage => self.metrics.add(|m| &m.net_bytes_to_storage, bytes),
            Direction::FromStorage => self.metrics.add(|m| &m.net_bytes_from_storage, bytes),
        }
        if let Some(l) = &self.limiter {
            l.acquire(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn metering_without_limiter_is_instant() {
        let m = Metrics::shared();
        let net = Network::new(&NetworkConfig::default(), m.clone());
        net.transfer(Direction::FromStorage, 1000);
        net.transfer(Direction::ToStorage, 10);
        let s = m.snapshot();
        assert_eq!(s.net_bytes_from_storage, 1000);
        assert_eq!(s.net_bytes_to_storage, 10);
    }

    #[test]
    fn limiter_paces_transfers() {
        let m = Metrics::shared();
        let cfg = NetworkConfig {
            bandwidth_bytes_per_sec: Some(1_000_000),
        };
        let net = Network::new(&cfg, m);
        let t0 = Instant::now();
        // 200 KB at 1 MB/s ≈ 200 ms.
        net.transfer(Direction::FromStorage, 200_000);
        let dt = t0.elapsed();
        assert!(
            dt >= Duration::from_millis(150),
            "transfer finished too fast: {dt:?}"
        );
    }

    #[test]
    fn limiter_is_shared_across_threads() {
        let m = Metrics::shared();
        let cfg = NetworkConfig {
            bandwidth_bytes_per_sec: Some(1_000_000),
        };
        let net = Network::new(&cfg, m);
        let t0 = Instant::now();
        // 4 threads × 50 KB = 200 KB over a shared 1 MB/s wire ≈ 200 ms,
        // NOT 50 ms (the medium is shared, not per-thread).
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                let net = &net;
                s.spawn(move |_| net.transfer(Direction::FromStorage, 50_000));
            }
        })
        .unwrap();
        let dt = t0.elapsed();
        assert!(
            dt >= Duration::from_millis(150),
            "shared medium not enforced: {dt:?}"
        );
    }

    #[test]
    fn small_transfer_is_not_blocked_behind_bulk_stream() {
        // Processor sharing, not FIFO reservations: while a 500 KB bulk
        // transfer occupies the 1 MB/s wire (≥500 ms), a concurrent 1 KB
        // transfer must complete in milliseconds (its fair share), not
        // wait for the bulk reservation to drain.
        let m = Metrics::shared();
        let cfg = NetworkConfig {
            bandwidth_bytes_per_sec: Some(1_000_000),
        };
        let net = Network::new(&cfg, m);
        crossbeam::thread::scope(|s| {
            s.spawn(|_| net.transfer(Direction::FromStorage, 500_000));
            // Let the bulk transfer start first.
            std::thread::sleep(Duration::from_millis(50));
            let t0 = Instant::now();
            net.transfer(Direction::FromStorage, 1_000);
            let dt = t0.elapsed();
            assert!(
                dt < Duration::from_millis(100),
                "small transfer head-of-line blocked behind bulk stream: {dt:?}"
            );
        })
        .unwrap();
    }
}
