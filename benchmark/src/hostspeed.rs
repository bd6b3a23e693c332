//! Host speed, measured beside the workload.
//!
//! The seed host is a shared virtual machine whose processors run up to half
//! as fast for seconds at a time: a fixed, pure-CPU loop takes 14 ms in one
//! five-second window and 21 ms in the next (README, "Reference speed"). A
//! run of eight seconds can sit wholly inside a slow stretch, so no median
//! over its waves repeats within the bounds the contract admits.
//!
//! So every end-to-end timing is taken *at reference speed*. A small fixed
//! kernel that shares no code with the program — string-keyed ordered-map
//! clones, inserts under freshly allocated keys and compares, the kind of
//! work the datastore and the engine spend their time in — runs on the
//! measuring thread every [`SLICE`]; what it takes, over [`NOMINAL_NS`], is
//! the host's slowdown right then, and the time measured between two
//! samples is divided by the mean of the two. A change to the program moves
//! the workload's time and not the kernel's, so it shows in full; a slow
//! minute of the host moves both and cancels.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::median;

/// What one kernel run takes on the seed host when nothing disturbs it.
/// Only ratios between runs on one host matter, so this sets the unit —
/// microseconds of the seed host at its undisturbed speed — and nothing
/// else.
const NOMINAL_NS: f64 = 170_000.0;

/// How often the measuring thread samples the host.
const SLICE: Duration = Duration::from_millis(25);

/// Cells of the kernel's map, and how many of them one run rewrites. Of
/// 768, 3072 and 6144 cells, timed side by side against `lrb` and `aqhi`
/// for 96 s each, all follow the wave time (correlation 0.89 to 0.97 per
/// second of run); 3072 left the least spread once divided out.
const CELLS: usize = 3072;
const TOUCHED: usize = 96;

/// The fixed kernel and its working set.
struct Reference {
    cells: BTreeMap<String, f64>,
    round: usize,
}

fn key(cell: usize) -> String {
    format!("seg{:03}/lane{}", cell / 4, cell % 4)
}

impl Reference {
    fn new() -> Self {
        Self {
            cells: (0..CELLS).map(|i| (key(i), i as f64)).collect(),
            round: 0,
        }
    }

    /// One run: snapshot the map, rewrite some cells under freshly built
    /// keys, count what differs from the snapshot.
    fn run(&mut self) -> usize {
        self.round += 1;
        let before = self.cells.clone();
        for i in 0..TOUCHED {
            let cell = (self.round * 7 + i * 61) % CELLS;
            *self.cells.entry(key(cell)).or_default() += 1.0;
        }
        self.cells
            .iter()
            .zip(&before)
            .filter(|((ka, va), (kb, vb))| ka != kb || va != vb)
            .count()
    }
}

/// The host's slowdown over a stretch of measuring, sample by sample.
pub struct HostSpeed {
    reference: Reference,
    last_sample: Instant,
    samples: Vec<f64>,
    /// Time the samples themselves took: the benchmark's, not the
    /// workload's.
    spent: Duration,
}

impl HostSpeed {
    /// Warms the kernel up and takes the first sample.
    #[must_use]
    pub fn start() -> Self {
        let mut this = Self {
            reference: Reference::new(),
            last_sample: Instant::now(),
            samples: Vec::new(),
            spent: Duration::ZERO,
        };
        // The first sample builds up the allocator's free lists and the
        // caches; the second is the one kept.
        this.sample();
        this.sample();
        this.restart();
        this
    }

    /// Whether a [`SLICE`] has passed since the last sample.
    #[must_use]
    pub fn due(&self) -> bool {
        self.due_after(SLICE)
    }

    /// Whether `period` has passed since the last sample.
    #[must_use]
    pub fn due_after(&self, period: Duration) -> bool {
        self.last_sample.elapsed() >= period
    }

    /// Samples the host: the median of three kernel runs over the nominal
    /// time. The first run refills the caches the workload has just
    /// emptied and an interrupt can land in any one of them; the median
    /// is a warm, undisturbed run. Returns the slowdown (1 = the seed host
    /// undisturbed).
    pub fn sample(&mut self) -> f64 {
        let began = Instant::now();
        let mut last = began;
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                std::hint::black_box(self.reference.run());
                let now = Instant::now();
                let took = (now - last).as_nanos() as f64;
                last = now;
                took
            })
            .collect();
        self.last_sample = last;
        self.spent += last - began;
        let slowdown = median(&runs) / NOMINAL_NS;
        self.samples.push(slowdown);
        slowdown
    }

    /// Takes a sample if one is due.
    pub fn sample_if_due(&mut self) {
        if self.due() {
            self.sample();
        }
    }

    /// Forgets the samples so far, keeping the last as the open end of
    /// the next stretch: set-up and the measured phase are told apart.
    pub fn restart(&mut self) {
        self.samples.drain(..self.samples.len() - 1);
        self.spent = Duration::ZERO;
    }

    /// Samples the host and returns the slowdown to book the stretch since
    /// the previous sample at: the mean of the samples at its two ends.
    pub fn close_slice(&mut self) -> f64 {
        let before = *self.samples.last().expect("start() took a sample");
        (before + self.sample()) / 2.0
    }

    /// Median slowdown over every sample so far.
    #[must_use]
    pub fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// `elapsed` on a driver's clock at reference speed, `hosts` having sampled
/// the host on the way (one per thread that ran side by side): less the
/// time the samples took, over the mean of the threads' median slowdowns.
#[must_use]
pub fn at_reference(elapsed: Duration, hosts: &[&HostSpeed]) -> f64 {
    let spent = hosts.iter().map(|h| h.spent).max().unwrap_or_default();
    let slowdown = hosts.iter().map(|h| h.median()).sum::<f64>() / hosts.len().max(1) as f64;
    elapsed.saturating_sub(spent).as_secs_f64() / slowdown
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_run() {
        let mut reference = Reference::new();
        for _ in 0..50 {
            reference.run();
            assert_eq!(reference.cells.len(), CELLS);
        }
        let total: f64 = reference.cells.values().sum();
        let fresh: f64 = Reference::new().cells.values().sum();
        assert_eq!(total - fresh, (50 * TOUCHED) as f64);
    }

    #[test]
    fn reference_time_leaves_the_samples_out_and_divides_by_the_slowdown() {
        let mut host = HostSpeed::start();
        host.samples = vec![2.0];
        host.spent = Duration::from_millis(100);
        let seconds = at_reference(Duration::from_millis(1100), &[&host]);
        assert!((seconds - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_slice_is_booked_at_the_mean_of_its_two_samples() {
        let mut host = HostSpeed::start();
        let first = host.samples[0];
        let booked = host.close_slice();
        assert_eq!(host.samples.len(), 2);
        assert!((booked - (first + host.samples[1]) / 2.0).abs() < 1e-12);
        assert!(host.median() > 0.0);
    }
}
