//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts that lend it a CPU whose speed moves
//! by as much as half for minutes at a time, so two runs of the same code
//! minutes apart can differ by more than any regression bound. A fixed
//! reference kernel (hashing, data-dependent branches and random reads and
//! writes over a 768 KiB working set, in plain Rust that links no engine
//! crate) is timed between operations throughout a run. It allocates
//! nothing and its working set fits the core's own cache, so the engine's
//! heap and cache footprint do not move it; only the host does. Its fast
//! end (the 10th percentile of its times, which one lucky run cannot move)
//! is the host's speed at its best during the run, and every time metric is
//! scaled by [`REFERENCE_MS`] over it: the metrics read as on a host where
//! the kernel's fast end is [`REFERENCE_MS`].

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::harness::{percentile, Rng};

/// About the kernel's fast end on the host the benchmark was tuned on
/// (2-vCPU shared VM). Only the ratio to it matters.
pub const REFERENCE_MS: f64 = 9.0;

/// The percentile of the kernel's times taken as its fast end.
const FAST_END: f64 = 0.1;

/// Kernel runs before each set-up.
pub const SETUP_KERNEL_RUNS: usize = 4;

/// Least wall time between two kernel runs.
const INTERVAL: Duration = Duration::from_millis(500);

/// Words in the table (512 KiB) and in the group array (256 KiB).
const WORDS: usize = 1 << 16;
const GROUPS: usize = 1 << 15;
/// Passes over the table per kernel run.
const ROUNDS: usize = 16;

/// The kernel's working set, allocated once.
struct Kernel {
    table: Vec<u64>,
    groups: Vec<u64>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = Rng::new(0xCA11_B8A7E);
        Kernel { table: (0..WORDS).map(|_| rng.next_u64()).collect(), groups: vec![0; GROUPS] }
    }

    fn run(&mut self) -> u64 {
        self.groups.fill(0);
        let mut sum = 0u64;
        for round in 0..ROUNDS as u64 {
            for &v in &self.table {
                let h = (v ^ round).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                self.groups[(h >> 49) as usize] += v >> 32;
                sum = if h & 1 == 0 {
                    sum.wrapping_add(self.table[(h >> 20) as usize % WORDS])
                } else {
                    sum ^ (v >> 3)
                };
            }
        }
        sum ^ self.groups[(sum as usize) % GROUPS]
    }
}

/// Times the kernel between a run's operations.
pub struct Calibrator {
    kernel: Kernel,
    last: Option<Instant>,
    /// Kernel times, in milliseconds.
    times_ms: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator { kernel: Kernel::new(), last: None, times_ms: Vec::new() }
    }

    /// Time the kernel once if [`INTERVAL`] has passed since it last ran.
    /// Called between operations, never inside a timed one.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed() < INTERVAL) {
            return;
        }
        self.sample(1);
    }

    /// Time the kernel `runs` times now.
    pub fn sample(&mut self, runs: usize) {
        for _ in 0..runs {
            let start = Instant::now();
            black_box(self.kernel.run());
            self.times_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        self.last = Some(Instant::now());
    }

    /// The kernel's fast end so far, in milliseconds.
    fn fast_ms(&self) -> f64 {
        percentile(&self.times_ms, FAST_END)
    }

    /// What a time measured in this run is multiplied by to read as on the
    /// reference host.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.fast_ms()
    }

    /// `calibration: ...` for the table.
    pub fn note(&self) -> String {
        format!(
            "calibration: kernel fast end {:.3} ms over {} runs, times scaled by {:.4}",
            self.fast_ms(),
            self.times_ms.len(),
            self.factor()
        )
    }
}
