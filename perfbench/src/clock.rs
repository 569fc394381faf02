//! The host clock behind every host-time metric: wall time, normalised by
//! a fixed calibration loop timed between the measurements.
//!
//! On a shared machine the speed a process gets drifts by up to 2x over
//! tens of seconds (neighbours on the same host), so raw wall times of
//! identical code taken minutes apart disagree far beyond any useful bound.
//! A loop that never changes (ordered-map inserts and range lookups, a
//! sort) slows down with the machine; dividing by its mean time over the
//! process cancels most of that drift. Results are scaled back to
//! nanoseconds of a machine on which one loop takes [`REF_NS`], so a
//! normalised value reads like a wall time on an unloaded core of the build
//! host (2-vCPU x86-64 VM: one loop about 18-20 ms unloaded).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Nominal duration of one calibration loop, ns.
pub const REF_NS: f64 = 20e6;

/// One pass of the calibration loop. It depends on nothing in the
/// repository, so a change to the program cannot move it.
fn calibration_loop() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map = BTreeMap::new();
    let mut keys = Vec::with_capacity(1 << 16);
    for i in 0..(1u64 << 16) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x & 0xF_FFFF, i);
        keys.push(x);
    }
    keys.sort_unstable();
    let mut acc = 0u64;
    for k in keys.iter().step_by(3) {
        if let Some((_, v)) = map.range(k & 0xF_FFFF..).next() {
            acc = acc.wrapping_add(*v);
        }
    }
    acc
}

fn reference_ns() -> f64 {
    let t = Instant::now();
    black_box(calibration_loop());
    t.elapsed().as_nanos() as f64
}

/// Raw measurements plus the calibration samples taken between them. One
/// calibration loop runs after every measured call and a few at either end
/// of the sequence; their mean gives one factor for the whole sequence, so
/// its drift is corrected while single-loop jitter averages out.
pub struct HostClock {
    samples: Vec<f64>,
}

/// Calibration loops at the start and at the end of a process.
const EDGE_SAMPLES: usize = 4;

impl HostClock {
    pub fn new() -> Self {
        // One untimed pass first so page faults and cold caches are paid.
        black_box(calibration_loop());
        HostClock {
            samples: (0..EDGE_SAMPLES).map(|_| reference_ns()).collect(),
        }
    }

    /// Run `f`; return its result and its raw wall time, ns.
    pub fn measure<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let t = Instant::now();
        let r = f();
        let raw = t.elapsed().as_nanos() as f64;
        self.samples.push(reference_ns());
        (r, raw)
    }

    /// Close the sequence: the factor that turns its raw wall
    /// nanoseconds into normalised ones.
    pub fn factor(&mut self) -> f64 {
        self.samples
            .extend((0..EDGE_SAMPLES).map(|_| reference_ns()));
        let mean = self.samples.iter().sum::<f64>() / self.samples.len() as f64;
        REF_NS / mean
    }
}
