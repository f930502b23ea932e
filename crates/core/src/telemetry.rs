//! Training telemetry: the software substitute for the paper's VTune
//! core-utilization measurement (Table 2).
//!
//! Every worker thread accumulates its busy nanoseconds into a
//! cache-padded atomic slot; utilization is `Σ busy / (threads × wall)` —
//! the same quantity VTune's "CPU utilization" reports. Two work
//! counters (weight elements touched, multiply-adds performed) count
//! what an example costs independently of the clock; the benchmark
//! reports them per example.

use std::sync::atomic::{AtomicU64, Ordering};

use slide_kernels::CachePadded;

/// Shared counters, written concurrently by worker threads.
#[derive(Debug)]
pub struct Telemetry {
    /// Busy nanoseconds per worker slot (cache-padded against false
    /// sharing — itself one of the paper's optimizations).
    busy_nanos: Vec<CachePadded<AtomicU64>>,
    /// Total active neurons seen at the output layer.
    active_output: AtomicU64,
    /// Examples processed.
    examples: AtomicU64,
    /// Weight elements read or written.
    weight_touches: AtomicU64,
    /// Arithmetic ops performed (multiply-adds).
    compute_ops: AtomicU64,
}

impl Telemetry {
    /// Creates counters for up to `threads` worker slots.
    pub fn new(threads: usize) -> Self {
        Self {
            busy_nanos: (0..threads.max(1))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            active_output: AtomicU64::new(0),
            examples: AtomicU64::new(0),
            weight_touches: AtomicU64::new(0),
            compute_ops: AtomicU64::new(0),
        }
    }

    /// Adds busy time for worker `slot` (wrapped modulo the slot count).
    #[inline]
    pub fn add_busy(&self, slot: usize, nanos: u64) {
        self.busy_nanos[slot % self.busy_nanos.len()].fetch_add(nanos, Ordering::Relaxed);
    }

    /// Records one processed example with its output active-set size and
    /// the memory/compute volume of its pass.
    #[inline]
    pub fn record_example(&self, active_output: usize, weight_touches: u64, compute_ops: u64) {
        self.examples.fetch_add(1, Ordering::Relaxed);
        self.active_output
            .fetch_add(active_output as u64, Ordering::Relaxed);
        self.weight_touches
            .fetch_add(weight_touches, Ordering::Relaxed);
        self.compute_ops.fetch_add(compute_ops, Ordering::Relaxed);
    }

    /// Snapshot of the counters.
    pub fn snapshot(&self, wall_seconds: f64) -> TelemetryReport {
        let busy: u64 = self
            .busy_nanos
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        let threads = self.busy_nanos.len();
        let examples = self.examples.load(Ordering::Relaxed);
        TelemetryReport {
            threads,
            wall_seconds,
            busy_seconds: busy as f64 / 1e9,
            utilization: if wall_seconds > 0.0 {
                (busy as f64 / 1e9) / (wall_seconds * threads as f64)
            } else {
                0.0
            },
            examples,
            avg_active_output: if examples == 0 {
                0.0
            } else {
                self.active_output.load(Ordering::Relaxed) as f64 / examples as f64
            },
            weight_touches: self.weight_touches.load(Ordering::Relaxed),
            compute_ops: self.compute_ops.load(Ordering::Relaxed),
        }
    }
}

/// Immutable telemetry snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryReport {
    /// Worker slots.
    pub threads: usize,
    /// Wall-clock seconds measured by the caller.
    pub wall_seconds: f64,
    /// Sum of per-thread busy seconds.
    pub busy_seconds: f64,
    /// `busy / (threads × wall)` — Table 2's core utilization.
    pub utilization: f64,
    /// Examples processed.
    pub examples: u64,
    /// Mean active output neurons per example (the paper's "≈ 1000 of
    /// 205K / ≈ 3000 of 670K" observation).
    pub avg_active_output: f64,
    /// Weight elements read or written: the memory work of the run.
    pub weight_touches: u64,
    /// Multiply-add operations: the compute work of the run.
    pub compute_ops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let t = Telemetry::new(4);
        // 4 threads each busy 0.5 s over a 1 s wall: 50% utilization.
        for slot in 0..4 {
            t.add_busy(slot, 500_000_000);
        }
        let r = t.snapshot(1.0);
        assert!((r.utilization - 0.5).abs() < 1e-9);
        assert_eq!(r.threads, 4);
        assert!((r.busy_seconds - 2.0).abs() < 1e-9);
    }

    #[test]
    fn example_averages() {
        let t = Telemetry::new(1);
        t.record_example(100, 1000, 2000);
        t.record_example(200, 3000, 4000);
        let r = t.snapshot(1.0);
        assert_eq!(r.examples, 2);
        assert!((r.avg_active_output - 150.0).abs() < 1e-9);
        assert_eq!(r.weight_touches, 4000);
        assert_eq!(r.compute_ops, 6000);
    }

    #[test]
    fn zero_wall_no_nan() {
        let t = Telemetry::new(2);
        let r = t.snapshot(0.0);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.avg_active_output, 0.0);
    }

    #[test]
    fn slot_wraps() {
        let t = Telemetry::new(2);
        t.add_busy(7, 100); // 7 % 2 == 1
        let r = t.snapshot(1.0);
        assert!(r.busy_seconds > 0.0);
    }

    #[test]
    fn concurrent_recording() {
        let t = std::sync::Arc::new(Telemetry::new(8));
        let handles: Vec<_> = (0..8)
            .map(|slot| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        t.add_busy(slot, 10);
                        t.record_example(5, 6, 7);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let r = t.snapshot(1.0);
        assert_eq!(r.examples, 8000);
        assert_eq!(r.weight_touches, 48_000);
    }
}
