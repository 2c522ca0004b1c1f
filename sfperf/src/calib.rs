//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by ±25% over
//! minutes: a neighbour's load slows integer, branchy code (this simulator,
//! sorting, hashing) for tens of seconds at a time, and a 20-second run
//! cannot average that away. So every operation is bracketed by a fixed
//! calibration kernel — std-only code in this file that no change to the
//! program can touch — and its time is reported in *reference seconds*:
//! host seconds × [`REFERENCE_S`] / (the kernel's time just before and just
//! after the operation, averaged). A change that makes the program faster
//! lowers reference seconds exactly as it lowers host seconds; a host that
//! runs everything slower for a while moves both the operation and the
//! kernel, and cancels.

use std::collections::{HashMap, VecDeque};
use std::time::Instant;

use crate::stats::median;

/// Host seconds one [`kernel`] call takes at reference speed: its median on
/// an unloaded 2-vCPU Xeon at 2.1 GHz, the host the benchmark was defined
/// on. Only the scale of reported times depends on it.
pub const REFERENCE_S: f64 = 0.05;

/// Runs the calibration kernel once and returns its host seconds.
///
/// A deterministic mix shaped like the program's hot loops: an unstable
/// sort, hash-map updates and lookups, and a queue network in which packets
/// move greedily between random neighbours. Its data stays under 256 KiB, so
/// it neither raises the process's peak memory nor leaves the program's
/// working set cold for longer than a few milliseconds.
#[must_use]
pub fn kernel() -> f64 {
    let started = Instant::now();
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut keys: Vec<u32> = vec![0; 1 << 15];
    let mut checksum = 0u64;
    for _ in 0..24 {
        keys.iter_mut().for_each(|k| *k = next() as u32);
        keys.sort_unstable();
        checksum ^= u64::from(keys[keys.len() / 2]);
    }

    drop(keys);
    let mut counts: HashMap<u64, u64> = HashMap::with_capacity(1 << 12);
    for i in 0..300_000u64 {
        *counts.entry(next() % 4_000).or_insert(0) += i;
    }
    for i in 0..300_000u64 {
        checksum = checksum.wrapping_add(counts.get(&(i % 5_000)).copied().unwrap_or(1));
    }
    drop(counts);

    const NODES: usize = 512;
    const DEPTH: usize = 8;
    let mut queues: Vec<VecDeque<(u32, u32)>> =
        (0..NODES).map(|_| VecDeque::with_capacity(DEPTH)).collect();
    let neighbours: Vec<[u32; 8]> = (0..NODES)
        .map(|_| std::array::from_fn(|_| (next() % NODES as u64) as u32))
        .collect();
    for cycle in 0..800u32 {
        for node in 0..NODES {
            if next() % 4 == 0 && queues[node].len() < DEPTH {
                queues[node].push_back(((next() % NODES as u64) as u32, cycle));
            }
            let Some(&(dest, born)) = queues[node].front() else {
                continue;
            };
            if dest as usize == node {
                queues[node].pop_front();
                checksum = checksum.wrapping_add(u64::from(cycle - born));
                continue;
            }
            let distance = |c: u32| (c ^ dest).count_ones() * 16 + (c.abs_diff(dest) & 15);
            let mut best = neighbours[node][0];
            for &c in &neighbours[node][1..] {
                if distance(c) < distance(best) {
                    best = c;
                }
            }
            if distance(best) > 24 && next() % 3 == 0 {
                best = dest;
            }
            if queues[best as usize].len() < DEPTH {
                let packet = queues[node].pop_front().expect("front exists");
                queues[best as usize].push_back(packet);
            }
        }
    }
    std::hint::black_box(checksum);
    started.elapsed().as_secs_f64()
}

/// What the benchmark measures between a run's operations: the host's
/// speed, and the peak memory of the operation just finished.
///
/// The peak is the kernel's `VmHWM`, reset after every operation through
/// `/proc/self/clear_refs`, so each operation's peak is read on its own and
/// a run reports their median. A whole-run peak is the largest of many
/// samples and, where worker threads pair up differently from run to run
/// (`fig10_sweep`), jumps between runs. Where the reset is refused the
/// samples are whole-run peaks so far.
#[derive(Debug)]
pub struct Brackets {
    calib_s: Vec<f64>,
    peak_mb: Vec<f64>,
}

impl Brackets {
    /// Calibrates once and resets the peak, before the first operation.
    #[must_use]
    pub fn start() -> Self {
        let brackets = Self {
            calib_s: vec![kernel()],
            peak_mb: Vec::new(),
        };
        reset_peak_rss();
        brackets
    }

    /// Reads the peak memory of the operation just finished, calibrates,
    /// resets the peak, and returns the factor that turns the operation's
    /// host seconds into reference seconds: [`REFERENCE_S`] over the mean of
    /// the calibrations just before and just after it.
    pub fn after_op(&mut self) -> f64 {
        if let Some(kb) = sf_obs::rss::peak_rss_kb() {
            self.peak_mb.push(kb as f64 / 1024.0);
        }
        let before = *self.calib_s.last().expect("start() calibrated once");
        let after = kernel();
        self.calib_s.push(after);
        reset_peak_rss();
        factor(before, after)
    }

    /// Median calibration time, host seconds.
    #[must_use]
    pub fn median_calib_s(&self) -> f64 {
        median(&self.calib_s)
    }

    /// Median peak resident memory of one operation, MiB.
    #[must_use]
    pub fn median_peak_mb(&self) -> f64 {
        median(&self.peak_mb)
    }
}

/// Resets the process's peak resident set size to its current size.
fn reset_peak_rss() {
    // Refused on kernels before 4.0 and in some sandboxes; the peak then
    // keeps growing over the run, as documented on `Brackets`.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Reference seconds per host second, from the calibrations bracketing an
/// operation.
#[must_use]
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    2.0 * REFERENCE_S / (before_s + after_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_by_the_mean_bracketing_calibration() {
        assert_eq!(factor(REFERENCE_S, REFERENCE_S), 1.0);
        // A host at half speed for the whole operation: halve its time.
        assert_eq!(factor(2.0 * REFERENCE_S, 2.0 * REFERENCE_S), 0.5);
        // Mean of before and after: 1.5 × reference.
        assert!((factor(REFERENCE_S, 2.0 * REFERENCE_S) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn brackets_keep_a_calibration_per_operation_plus_one() {
        let mut brackets = Brackets::start();
        let f = brackets.after_op();
        assert!(f.is_finite() && f > 0.0);
        assert_eq!(brackets.calib_s.len(), 2);
        assert_eq!(brackets.peak_mb.len(), 1);
        assert!(brackets.median_calib_s() > 0.0);
        assert!(brackets.median_peak_mb() > 0.0);
    }

    #[test]
    fn peak_is_per_operation() {
        let mut brackets = Brackets::start();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        drop(big);
        brackets.after_op();
        brackets.after_op();
        // The second operation did not hold the 64 MiB; its peak must not
        // count them, unless the kernel refuses the reset.
        if std::fs::write("/proc/self/clear_refs", "5").is_ok() {
            assert!(
                brackets.peak_mb[1] < brackets.peak_mb[0] - 32.0,
                "{:?}",
                brackets.peak_mb
            );
        }
    }
}
