//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared host the speed of this process's cores drifts in phases
//! of tens of seconds to minutes as other tenants load the machine:
//! allocation- and map-heavy code such as the program's ran up to 1.8
//! times slower in a busy phase than in a quiet one, while a
//! register-only loop moved by a tenth. Two runs of the same code
//! minutes apart then differ by more than any bound a regression check
//! could use.
//!
//! So every timed workload also runs a fixed calibration kernel, written
//! here and never touched by the program: map inserts, string formatting
//! and a sort, the same mix of work as the program's. It samples the
//! kernel about once a second between operations, never inside a timed
//! one (where a workload repeats its set-up in the window, right after
//! the set-up, so that only one operation a second follows other work),
//! and scales every end-to-end time by
//! `REFERENCE_KERNEL_S / mean kernel pass time over the window`: the
//! figures read as on a host where one kernel pass takes
//! [`REFERENCE_KERNEL_S`]. A faster program still shows in full, since
//! the kernel does not change with it; a slower host phase slows both
//! and cancels. The mean, not the median, because a window that spans a
//! fast and a slow phase slows the workload by the mean of the two. The
//! wall-clock figures are printed as notes.
//!
//! Over six minutes of a busy shared 2-core host, the mean pipeline time
//! per instance in 30-second windows spread 0.25 (quartile distance over
//! median); scaled this way it spread 0.03 to 0.06.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::report::Outcome;

/// Kernel pass time on the reference host, in seconds.
pub const REFERENCE_KERNEL_S: f64 = 1e-3;

/// Kernel passes in one sample: some 40 ms, 4% of the window.
const PASSES: u32 = 40;

/// How often [`Speed::tick`] takes a sample.
const EVERY: Duration = Duration::from_secs(1);

/// Unrecorded samples taken before a measured window.
const WARM_UP: usize = 3;

/// One kernel pass: 2000 map inserts, 2000 formatted strings, a sort.
fn kernel(salt: u64) -> usize {
    let mut map = BTreeMap::new();
    let mut names = Vec::new();
    let mut x = 0x2545_f491_4f6c_dd1d ^ salt;
    for i in 0..2000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, i);
        names.push(format!("t{} {i}", x >> 50));
    }
    names.sort();
    map.len() + names.len()
}

/// The kernel samples of one run.
pub struct Speed {
    /// Threads that run the kernel at once: as many as the workload
    /// keeps busy and are idle while it samples, so a sample sees every
    /// core the workload runs on and competes with none of its threads.
    threads: usize,
    samples: Vec<f64>,
    last: Instant,
}

impl Speed {
    /// Takes the warm-up samples.
    pub fn new(threads: usize) -> Speed {
        let mut speed = Speed {
            threads,
            samples: Vec::new(),
            last: Instant::now(),
        };
        for _ in 0..WARM_UP {
            speed.sample();
        }
        speed.samples.clear();
        speed
    }

    /// Times [`PASSES`] kernel passes on each thread and records the
    /// time per pass.
    pub fn sample(&mut self) {
        let passes = || {
            for salt in 0..PASSES {
                black_box(kernel(u64::from(salt)));
            }
        };
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..self.threads {
                s.spawn(passes);
            }
            passes();
        });
        self.samples
            .push(t0.elapsed().as_secs_f64() / f64::from(PASSES));
        self.last = Instant::now();
    }

    /// Takes a sample if [`EVERY`] has passed since the last one. Call
    /// it between timed operations.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.sample();
        }
    }

    /// What a wall-clock time is multiplied by to read at reference
    /// speed. Notes the kernel figures.
    pub fn factor(&mut self, out: &mut Outcome) -> f64 {
        // A window shorter than a second has taken no sample yet.
        if self.samples.is_empty() {
            self.sample();
        }
        let n = self.samples.len();
        let kernel_s = self.samples.iter().sum::<f64>() / n as f64;
        let factor = REFERENCE_KERNEL_S / kernel_s;
        out.note(format!(
            "host speed: {} kernel samples, mean pass {:.4} ms, times scaled by {factor:.4}",
            self.samples.len(),
            kernel_s * 1e3
        ));
        factor
    }
}
