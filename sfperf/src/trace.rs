//! Delegating wrappers for the traced run.
//!
//! They live in the benchmark, not the program: each forwards every call to
//! the real layer and times about one call in [`SAMPLE_EVERY`], so the traced run
//! simulates exactly what the untraced run simulates. The untraced run uses
//! none of them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stringfigure::netsim::{TrafficModel, TrafficRequest};
use stringfigure::routing::{GreediestRouting, PortLoadEstimator, RoutingContext, RoutingProtocol};
use stringfigure::types::rng::splitmix64;
use stringfigure::types::{NodeId, SfResult, VirtualChannelId};

/// On average one call in this many is timed; the rest only count.
pub const SAMPLE_EVERY: u64 = 32;

/// Whether call number `n` is timed. A hash of the call index, not a fixed
/// stride: the kernel calls the traffic model once per node per cycle, so a
/// stride would keep landing on the same nodes and bias the estimate.
#[inline]
fn sampled(n: u64) -> bool {
    splitmix64(n).is_multiple_of(SAMPLE_EVERY)
}

/// Median cost of one back-to-back `Instant::now` + `elapsed` pair, in ns:
/// subtracted from every sampled call so a 20 ns call is not reported as
/// 40 ns.
#[must_use]
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2_001)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(t.elapsed()).as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Call counter that times a pseudo-random 1 in [`SAMPLE_EVERY`] calls.
#[derive(Debug, Default)]
pub struct SampledTimer {
    calls: AtomicU64,
    sampled: AtomicU64,
    sampled_ns: AtomicU64,
}

impl SampledTimer {
    /// Runs `call`, timing it when it is a sampled call.
    #[inline]
    pub fn time<T>(&self, call: impl FnOnce() -> T) -> T {
        // Relaxed: the counters publish no other data and are read only
        // after the simulation that updates them has returned.
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if !sampled(n) {
            return call();
        }
        let started = Instant::now();
        let out = call();
        let ns = started.elapsed().as_nanos() as u64;
        self.sampled.fetch_add(1, Ordering::Relaxed);
        self.sampled_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    /// Calls made.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean ns per call over the sampled calls, less the timer's own cost
    /// (`overhead_ns`), floored at zero.
    #[must_use]
    pub fn mean_ns(&self, overhead_ns: f64) -> f64 {
        let sampled = self.sampled.load(Ordering::Relaxed);
        if sampled == 0 {
            return 0.0;
        }
        let mean = self.sampled_ns.load(Ordering::Relaxed) as f64 / sampled as f64;
        (mean - overhead_ns).max(0.0)
    }

    /// Estimated total time in all calls: sampled mean × calls.
    #[must_use]
    pub fn estimated(&self, overhead_ns: f64) -> Duration {
        Duration::from_secs_f64(self.mean_ns(overhead_ns) * self.calls() as f64 / 1e9)
    }
}

/// A [`RoutingProtocol`] that forwards all four trait methods to a shared
/// [`GreediestRouting`] and times about 1 `next_hop` in [`SAMPLE_EVERY`].
#[derive(Debug)]
pub struct TracedRouting {
    inner: Arc<GreediestRouting>,
    timer: Arc<SampledTimer>,
}

impl TracedRouting {
    /// Wraps `inner`; the caller keeps clones of both `Arc`s to read the
    /// protocol's decision counters and the timer after the run.
    #[must_use]
    pub fn new(inner: Arc<GreediestRouting>, timer: Arc<SampledTimer>) -> Self {
        Self { inner, timer }
    }
}

impl RoutingProtocol for TracedRouting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_hop(
        &self,
        at: NodeId,
        dest: NodeId,
        loads: &dyn PortLoadEstimator,
        ctx: &RoutingContext,
    ) -> SfResult<NodeId> {
        self.timer
            .time(|| self.inner.next_hop(at, dest, loads, ctx))
    }

    fn virtual_channel(&self, at: NodeId, next: NodeId, dest: NodeId) -> VirtualChannelId {
        self.inner.virtual_channel(at, next, dest)
    }

    fn max_hops(&self, num_nodes: usize) -> usize {
        self.inner.max_hops(num_nodes)
    }
}

/// A [`TrafficModel`] that forwards to `inner`, times about 1 `maybe_inject` in
/// [`SAMPLE_EVERY`], counts the requests it returns, and stamps the host
/// clock at its first call of every simulated cycle.
pub struct TracedTraffic<'a> {
    inner: &'a mut dyn TrafficModel,
    /// Per-call timing of the traffic model.
    pub timer: SampledTimer,
    /// Requests the model returned.
    pub requests: u64,
    /// Of those, writes.
    pub writes: u64,
    cycle: Option<u64>,
    /// Host time at the first call of each injecting cycle, in cycle order.
    pub cycle_starts: Vec<Instant>,
}

impl<'a> TracedTraffic<'a> {
    /// Wraps `inner`, reserving room for `cycles` boundary stamps.
    pub fn new(inner: &'a mut dyn TrafficModel, cycles: usize) -> Self {
        Self {
            inner,
            timer: SampledTimer::default(),
            requests: 0,
            writes: 0,
            cycle: None,
            cycle_starts: Vec::with_capacity(cycles),
        }
    }

    /// Host µs between consecutive cycle stamps. The drain phase after the
    /// last injecting cycle calls no traffic model, so it has no stamps.
    #[must_use]
    pub fn cycle_us(&self) -> Vec<f64> {
        self.cycle_starts
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e6)
            .collect()
    }
}

impl TrafficModel for TracedTraffic<'_> {
    fn maybe_inject(&mut self, cycle: u64, source: NodeId) -> Option<TrafficRequest> {
        if self.cycle != Some(cycle) {
            self.cycle = Some(cycle);
            self.cycle_starts.push(Instant::now());
        }
        let inner = &mut *self.inner;
        let request = self.timer.time(|| inner.maybe_inject(cycle, source));
        if let Some(r) = &request {
            self.requests += 1;
            self.writes += u64::from(r.write);
        }
        request
    }

    fn is_exhausted(&self) -> bool {
        self.inner.is_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_timer_counts_every_call_and_times_about_one_in_n() {
        let timer = SampledTimer::default();
        let calls = 1_000 * SAMPLE_EVERY;
        for i in 0..calls {
            assert_eq!(timer.time(|| i * 2), i * 2);
        }
        assert_eq!(timer.calls(), calls);
        let timed = timer.sampled.load(Ordering::Relaxed);
        assert!((900..1_100).contains(&timed), "{timed} of {calls} timed");
        assert_eq!(timer.mean_ns(f64::MAX), 0.0, "overhead floors at zero");
    }

    #[test]
    fn sampling_does_not_alias_with_a_per_node_stride() {
        // 1296 nodes per cycle, one expensive node in every 40: a fixed
        // 1-in-32 stride would time these nodes at the wrong rate.
        let hits = (0..1296 * 200u64)
            .filter(|&n| sampled(n) && (n % 1296) % 40 == 0)
            .count() as f64;
        let expected = (1296 * 200 / 40) as f64 / SAMPLE_EVERY as f64;
        assert!((hits / expected - 1.0).abs() < 0.25, "{hits} vs {expected}");
    }

    #[test]
    fn traced_traffic_stamps_each_cycle_once() {
        struct EveryOther;
        impl TrafficModel for EveryOther {
            fn maybe_inject(&mut self, cycle: u64, source: NodeId) -> Option<TrafficRequest> {
                (source.index() == 0).then(|| {
                    if cycle.is_multiple_of(2) {
                        TrafficRequest::write(NodeId::new(1))
                    } else {
                        TrafficRequest::read(NodeId::new(1))
                    }
                })
            }
        }
        let mut inner = EveryOther;
        let mut traced = TracedTraffic::new(&mut inner, 4);
        for cycle in 0..4 {
            for node in 0..3 {
                traced.maybe_inject(cycle, NodeId::new(node));
            }
        }
        assert_eq!(traced.cycle_starts.len(), 4);
        assert_eq!(traced.cycle_us().len(), 3);
        assert_eq!(traced.requests, 4);
        assert_eq!(traced.writes, 2);
        assert_eq!(traced.timer.calls(), 12);
    }
}
