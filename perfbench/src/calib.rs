//! Machine-speed calibration.
//!
//! On a shared machine the speed a process gets drifts by up to ~1.5×
//! over seconds to minutes, because co-tenants contend for execution
//! units and caches, not because the clock changes: a latency-bound
//! scalar loop keeps its speed while throughput-bound code slows. A
//! run-level median of raw host times therefore moves by 15–50 %
//! between identical runs.
//!
//! The benchmark runs a fixed throughput-bound [`Kernel`] (no library
//! code) beside every op, and reports each op's host time scaled by the
//! kernel's reference time over its measured time around the op: host
//! seconds on a machine that runs the kernel in exactly
//! [`Kernel::ref_s`]. Run to run this holds within a few percent,
//! because the kernel slows with the co-tenant load the way the workload
//! does; each workload picks the kernel whose instruction mix resembles
//! its own. A library change moves the op time and not the kernel, so it
//! shows in full; a change to build flags moves both, so judge one by
//! the raw host times of the detail line.

use std::hint::black_box;
use std::time::Instant;

/// A calibration job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// 24 LU factorizations of a 64×64 diagonally dominant matrix, each
    /// followed by 2000 `exp`/`ln` pairs: floating-point and cache
    /// throughput, like the circuit solver, netlist and service work.
    Dense,
    /// [`Kernel::Dense`] plus 80 000 rounds of a 64-lane xorshift with
    /// threshold counting, for the lane-batched Monte-Carlo sampler,
    /// which the dense job alone tracks poorly.
    DenseAndLanes,
}

impl Kernel {
    /// Reference duration of one run, seconds: its time on an
    /// uncontended 2-vCPU Xeon box with this repository's build flags.
    #[must_use]
    pub fn ref_s(self) -> f64 {
        match self {
            Self::Dense => 1.8e-3,
            Self::DenseAndLanes => 2.8e-3,
        }
    }

    /// Runs the job once.
    pub fn run(self) -> f64 {
        let dense = dense();
        match self {
            Self::Dense => dense,
            Self::DenseAndLanes => dense + lanes() as f64,
        }
    }

    /// Seconds of one run: CPU time of the calling thread, so that
    /// preemption by this process's own threads (the serve workload runs
    /// four on two cores) does not read as a slow machine. Falls back to
    /// wall time if the thread clock is unavailable.
    #[must_use]
    pub fn sample(self) -> f64 {
        let cpu0 = thread_cpu_s();
        let t0 = Instant::now();
        self.run();
        let wall = t0.elapsed().as_secs_f64();
        match (cpu0, thread_cpu_s()) {
            (Some(a), Some(b)) if b > a => b - a,
            _ => wall,
        }
    }

    /// `host_s` scaled to the reference machine speed, given this
    /// kernel's time `cal_s` measured beside it.
    #[must_use]
    pub fn normalize(self, host_s: f64, cal_s: f64) -> f64 {
        host_s * self.ref_s() / cal_s
    }
}

fn dense() -> f64 {
    const N: usize = 64;
    let mut acc = 0.0;
    for rep in 0..24 {
        let mut a = vec![0.0f64; N * N];
        for i in 0..N {
            for j in 0..N {
                a[i * N + j] = if i == j {
                    N as f64
                } else {
                    1.0 / (1 + i + j + rep) as f64
                };
            }
        }
        let mut a = black_box(a);
        for k in 0..N {
            let pivot = a[k * N + k];
            for i in k + 1..N {
                let f = a[i * N + k] / pivot;
                a[i * N + k] = f;
                for j in k + 1..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
            }
        }
        for i in 0..2000 {
            acc += (f64::from(i) * 1e-3 + a[N * N - 1]).exp().ln();
        }
    }
    black_box(acc)
}

fn lanes() -> u64 {
    let mut s = [0u64; 64];
    for (i, x) in s.iter_mut().enumerate() {
        *x = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    let mut s = black_box(s);
    let mut hits = 0u64;
    for _ in 0..80_000 {
        for x in &mut s {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
        }
        for x in &s {
            hits += u64::from((*x >> 11) < (1u64 << 52));
        }
    }
    black_box(hits)
}

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, seconds; `None` if the clock
/// is unavailable. (The scheduler statistics in `/proc` only advance at
/// scheduler ticks, too coarse for a millisecond kernel.)
fn thread_cpu_s() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly laid out local; the C
    // library is linked by std on every Linux target.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_are_deterministic_and_normalization_scales() {
        for k in [Kernel::Dense, Kernel::DenseAndLanes] {
            assert_eq!(k.run().to_bits(), k.run().to_bits());
            assert!(k.sample() > 0.0);
            assert_eq!(k.normalize(2.0, k.ref_s()), 2.0);
            assert_eq!(k.normalize(2.0, 2.0 * k.ref_s()), 1.0);
        }
    }
}
