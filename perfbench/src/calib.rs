//! Host-speed calibration for the host-time end-to-end metrics.
//!
//! On a shared host a core runs the same deterministic work at anywhere
//! from about 0.55× to 1× of its uncontended speed, in phases lasting from
//! half a second to minutes; CPU time slows with wall time, and the two
//! cores of the reference host slow independently. A whole run can fall
//! inside one slow phase, so no statistic over the run's own samples
//! removes it. Instead a fixed kernel of the benchmark's own — no program
//! code, so a program change cannot move it — is timed on the workload's
//! threads just before and just after every timed sample, and the sample
//! is reported at the reference host's speed.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Words in the kernel's lookup table (1 MiB, shared by all threads).
const TABLE_WORDS: usize = 1 << 17;
/// Dependent table reads per kernel run.
const READS: u32 = 1 << 18;
/// The kernel's time on the reference host (a shared 2-core VM) when a
/// core runs at full speed: the best of 400 runs, 3.5 ms.
const REFERENCE_SECS: f64 = 0.0035;

fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        (0..TABLE_WORDS)
            .map(|_| {
                z = mix(z);
                z
            })
            .collect()
    })
}

/// A splitmix64 step.
fn mix(z: u64) -> u64 {
    let mut x = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One kernel run: a chain of hashed, data-dependent table reads. Returns
/// its host time in seconds.
fn kernel_secs() -> f64 {
    let table = table();
    let start = Instant::now();
    let mut z = 1u64;
    for _ in 0..READS {
        z = mix(z ^ table[(z as usize) & (TABLE_WORDS - 1)]);
    }
    std::hint::black_box(z);
    start.elapsed().as_secs_f64()
}

/// The host's speed now relative to the reference host, on `threads`
/// threads at once: the slowest thread's, since a parallel sample waits
/// for its slowest core.
pub fn host_speed(threads: usize) -> f64 {
    table();
    let secs = if threads <= 1 {
        kernel_secs()
    } else {
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..threads).map(|_| scope.spawn(kernel_secs)).collect();
            runs.into_iter()
                .map(|run| run.join().expect("calibration thread"))
                .fold(0.0, f64::max)
        })
    };
    REFERENCE_SECS / secs
}

/// Runs `f` on `threads` threads' worth of host and returns its result
/// and its host time scaled to the reference host's speed: the elapsed
/// time × the mean host speed measured just before and just after.
pub fn at_reference_speed<T>(threads: usize, f: impl FnOnce() -> T) -> (T, Duration) {
    let before = host_speed(threads);
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed();
    let after = host_speed(threads);
    (out, elapsed.mul_f64((before + after) / 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_speed_is_positive_and_finite() {
        for threads in [1, 2] {
            let speed = host_speed(threads);
            assert!(speed.is_finite() && speed > 0.0, "{speed}");
        }
    }
}
