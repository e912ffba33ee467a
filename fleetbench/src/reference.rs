//! The host-speed reference: a fixed kernel timed right before every
//! measured interval, so that the timing metrics read the program's
//! time at one host speed.
//!
//! The benchmark was built on a shared 2-vCPU VM whose speed drifts by
//! up to 2.4× over minutes (`table2-256` tick p50 3.7–9.3 ms in runs of
//! the same code) while the service thread stays on its CPU for 94–100%
//! of the wall time: the drift comes from neighbours contending for the
//! core's execution units and caches, not from preemption, so on-CPU
//! time alone does not remove it. A time measured right after
//! the kernel is scaled by [`NOMINAL_NS`] ÷ the kernel's time.
//!
//! The kernel is the benchmark's own code, so no change to the program
//! can move it. It does throughput-bound small dense products — 6×6
//! `f64` blocks, the shape of the NUISE filter's matrices — over a
//! 48 KiB ring. Of the candidates tried on that host, it followed the
//! drift most closely: a dependent chain of the same products in
//! registers, the products over a 4 MiB ring, a pointer chase over
//! 64 MiB and a 32 MiB stream each followed a smaller part of it.

use crate::clock::thread_cpu_ns;

const N: usize = 6;
/// The ring: 48 KiB of 6×6 blocks.
const RING_BLOCKS: usize = (48 << 10) / (8 * N * N);
/// Block products per run of the kernel (about 20 µs on the build host).
const BLOCKS_PER_RUN: usize = 256;
/// The kernel time the metrics are scaled to: about its time on the
/// build host in that host's quieter stretches (15-22 µs, against
/// 27-40 µs when contended).
pub const NOMINAL_NS: f64 = 20_000.0;

/// The kernel's state: the ring and the next block to multiply.
#[derive(Debug, Clone)]
pub struct Reference {
    ring: Vec<f64>,
    cursor: usize,
    factor: [[f64; N]; N],
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            ring: (0..RING_BLOCKS * N * N)
                .map(|i| 1.0 + (i % 89) as f64 * 1e-3)
                .collect(),
            cursor: 0,
            factor: [[0.1; N]; N],
        }
    }
}

impl Reference {
    /// Runs the kernel once and returns its on-CPU nanoseconds.
    fn run_ns(&mut self) -> f64 {
        let factor = std::hint::black_box(self.factor);
        let start = thread_cpu_ns();
        for _ in 0..BLOCKS_PER_RUN {
            let at = self.cursor * N * N;
            self.cursor = (self.cursor + 1) % RING_BLOCKS;
            let block = &mut self.ring[at..at + N * N];
            let mut product = [0.0f64; N * N];
            for i in 0..N {
                for k in 0..N {
                    let a = block[i * N + k];
                    for j in 0..N {
                        product[i * N + j] += a * factor[k][j];
                    }
                }
            }
            // Rescale to trace 6, so the ring's values stay bounded.
            let trace: f64 = (0..N).map(|i| product[i * N + i]).sum();
            for (x, p) in block.iter_mut().zip(product) {
                *x = p * (6.0 / trace) + 1e-3;
            }
        }
        std::hint::black_box(&self.ring[0]);
        (thread_cpu_ns() - start) as f64
    }

    /// Runs the kernel and returns the factor that scales a time
    /// measured right after it to the nominal host speed.
    pub fn scale(&mut self) -> f64 {
        NOMINAL_NS / self.run_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_fixed_bounded_work() {
        let (mut a, mut b) = (Reference::default(), Reference::default());
        for _ in 0..3 * RING_BLOCKS / BLOCKS_PER_RUN {
            assert!(a.run_ns() > 0.0);
            b.run_ns();
        }
        assert_eq!(
            a.ring, b.ring,
            "the kernel's work does not depend on timing"
        );
        assert!(a.ring.iter().all(|x| x.is_finite() && x.abs() < 10.0));
        assert!(a.scale() > 0.0);
    }
}
