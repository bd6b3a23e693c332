//! The engine's decision history: one [`WaveDiagnostics`] row per wave,
//! kept in an append-only log of shared chunks.
//!
//! An operator reads the history while the engine keeps appending to it,
//! so a read must cost what it returns, not what the session has lived
//! through. The rows sit in fixed-size chunks behind `Arc`s, and a
//! [`Diagnostics`] clone is a snapshot that copies one pointer per chunk.
//! Every chunk but the last is full and never written again. The engine
//! appends to the last one through [`Arc::make_mut`]: while no snapshot
//! shares it that is a plain push, and when a reader still holds one the
//! engine copies that chunk (at most [`CHUNK_ROWS`] rows) once and appends
//! to its own copy, leaving the reader's rows as they were.

use std::sync::Arc;

use smartflux_telemetry::WaveDiagnostics;

/// Rows per chunk: the most a held snapshot can make the engine copy
/// (≈ 0.2 ms at this size). Measured, not derived: with 256-row chunks
/// `aqhi` waves ran ≈ 2 µs slower and the benchmark completed ≈ 3 % fewer
/// of them (EXPERIMENTS.md, "Decision history snapshots").
const CHUNK_ROWS: usize = 4096;

/// The engine's per-wave decision history, oldest wave first.
///
/// Cloning it takes a snapshot in O(chunks): the snapshot keeps exactly
/// the rows it was taken with, whatever the engine records afterwards.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// Full chunks, then the one being filled; none is empty.
    chunks: Vec<Arc<Vec<WaveDiagnostics>>>,
}

impl Diagnostics {
    /// Appends the row of the wave just finished. Waves are recorded in
    /// strictly increasing order, which [`since`](Self::since) relies on.
    pub(crate) fn push(&mut self, row: WaveDiagnostics) {
        debug_assert!(self.last().is_none_or(|last| last.wave < row.wave));
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < CHUNK_ROWS => {
                let rows = Arc::make_mut(chunk);
                // A copy taken from a shared chunk holds only its rows.
                rows.reserve_exact(CHUNK_ROWS - rows.len());
                rows.push(row);
            }
            _ => {
                let mut rows = Vec::with_capacity(CHUNK_ROWS);
                rows.push(row);
                self.chunks.push(Arc::new(rows));
            }
        }
    }

    /// Number of recorded waves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK_ROWS + last.len())
    }

    /// Whether no wave has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// The most recent row.
    #[must_use]
    pub fn last(&self) -> Option<&WaveDiagnostics> {
        self.chunks.last().and_then(|chunk| chunk.last())
    }

    /// Every row, oldest first.
    #[must_use]
    pub fn iter(&self) -> DiagnosticsIter<'_> {
        self.iter_from(0, 0)
    }

    /// The rows of `wave` and every later wave, found by binary search.
    #[must_use]
    pub fn since(&self, wave: u64) -> DiagnosticsIter<'_> {
        let chunk = self
            .chunks
            .partition_point(|c| c.last().is_some_and(|d| d.wave < wave));
        let row = self
            .chunks
            .get(chunk)
            .map_or(0, |c| c.partition_point(|d| d.wave < wave));
        self.iter_from(chunk, row)
    }

    fn iter_from(&self, chunk: usize, row: usize) -> DiagnosticsIter<'_> {
        let (head, rest) = match self.chunks.get(chunk) {
            Some(c) => (&c[row..], &self.chunks[chunk + 1..]),
            None => (&[][..], &[][..]),
        };
        DiagnosticsIter {
            head: head.iter(),
            rest: rest.iter(),
            remaining: self.len() - (chunk * CHUNK_ROWS + row).min(self.len()),
        }
    }
}

impl PartialEq for Diagnostics {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for &'a Diagnostics {
    type Item = &'a WaveDiagnostics;
    type IntoIter = DiagnosticsIter<'a>;

    fn into_iter(self) -> DiagnosticsIter<'a> {
        self.iter()
    }
}

/// Rows of a [`Diagnostics`] in wave order.
#[derive(Debug)]
pub struct DiagnosticsIter<'a> {
    head: std::slice::Iter<'a, WaveDiagnostics>,
    rest: std::slice::Iter<'a, Arc<Vec<WaveDiagnostics>>>,
    remaining: usize,
}

impl<'a> Iterator for DiagnosticsIter<'a> {
    type Item = &'a WaveDiagnostics;

    fn next(&mut self) -> Option<&'a WaveDiagnostics> {
        loop {
            if let Some(row) = self.head.next() {
                self.remaining -= 1;
                return Some(row);
            }
            self.head = self.rest.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for DiagnosticsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use smartflux_telemetry::GroundTruth;

    /// A row whose every field is derived from `wave`; training waves carry
    /// ground truth, application waves do not.
    fn row(wave: u64) -> WaveDiagnostics {
        let training = wave.is_multiple_of(3);
        WaveDiagnostics {
            wave,
            impacts: vec![wave as f64 * 0.5, -(wave as f64)],
            decisions: vec![wave.is_multiple_of(2), wave.is_multiple_of(5)],
            deferred: wave % 4,
            ground_truth: training.then(|| {
                Box::new(GroundTruth {
                    errors: vec![0.25; 2],
                    confidence: vec![1.0, 0.5],
                })
            }),
            training,
        }
    }

    /// Waves 10, 13, 16, …: gaps, so `since` is asked about waves that
    /// fall between rows as well as on them.
    fn wave_of(i: usize) -> u64 {
        10 + 3 * i as u64
    }

    fn build(n: usize) -> (Diagnostics, Vec<WaveDiagnostics>) {
        let mut log = Diagnostics::default();
        let mut model = Vec::new();
        for i in 0..n {
            log.push(row(wave_of(i)));
            model.push(row(wave_of(i)));
        }
        (log, model)
    }

    fn assert_matches(log: &Diagnostics, model: &[WaveDiagnostics]) {
        assert_eq!(log.len(), model.len());
        assert_eq!(log.is_empty(), model.is_empty());
        assert_eq!(log.last(), model.last());
        let iter = log.iter();
        assert_eq!(iter.len(), model.len());
        assert!(iter.eq(model.iter()));
        assert!(log.into_iter().eq(model.iter()));
    }

    /// Row counts on both sides of every chunk edge up to three chunks.
    const SIZES: [usize; 9] = [
        0,
        1,
        CHUNK_ROWS - 1,
        CHUNK_ROWS,
        CHUNK_ROWS + 1,
        2 * CHUNK_ROWS - 1,
        2 * CHUNK_ROWS,
        2 * CHUNK_ROWS + 1,
        10_000,
    ];

    #[test]
    fn oracle_the_log_reads_like_a_vec() {
        for n in SIZES {
            let (log, model) = build(n);
            assert_matches(&log, &model);
            let last = model.last().map_or(0, |d| d.wave);
            // Every wave from before the first row to after the last,
            // rows and the gaps between them alike: the tail's length and
            // first row each time, and the whole tail on every 61st wave
            // and where the tail starts on a chunk edge.
            for wave in 0..=last + 4 {
                let from = model.partition_point(|d| d.wave < wave);
                let mut since = log.since(wave);
                assert_eq!(since.len(), model.len() - from, "n {n} wave {wave}");
                if wave.is_multiple_of(61) || from % CHUNK_ROWS <= 1 {
                    assert!(since.eq(model[from..].iter()), "n {n} wave {wave}");
                } else {
                    assert_eq!(since.next(), model.get(from), "n {n} wave {wave}");
                }
            }
            assert_eq!(log.since(u64::MAX).len(), 0);
        }
    }

    #[test]
    fn oracle_a_snapshot_keeps_its_rows() {
        for k in SIZES {
            let (mut log, model) = build(k);
            let snapshot = log.clone();
            // Past at least one chunk edge.
            let more = CHUNK_ROWS + 1;
            for i in k..k + more {
                log.push(row(wave_of(i)));
            }
            assert_matches(&snapshot, &model);
            assert_eq!(log.len(), k + more);
            assert!(log.iter().take(k).eq(model.iter()));
            assert_eq!(snapshot, build(k).0);
            assert_ne!(snapshot, log);
        }
    }

    #[test]
    fn oracle_the_first_push_after_a_snapshot_copies_only_the_last_chunk() {
        for k in SIZES.into_iter().skip(1) {
            let (mut log, _) = build(k);
            let snapshot = log.clone();
            log.push(row(wave_of(k)));
            let shared = |i: usize| Arc::ptr_eq(&log.chunks[i], &snapshot.chunks[i]);
            let sealed = snapshot.chunks.len() - 1;
            assert!((0..sealed).all(shared), "k {k}: a sealed chunk was copied");
            // A full last chunk stays shared: the row opens a new one.
            assert_eq!(shared(sealed), k.is_multiple_of(CHUNK_ROWS), "k {k}");
            // Once copied, the engine's chunk is its own again.
            let before = Arc::as_ptr(log.chunks.last().unwrap());
            log.push(row(wave_of(k + 1)));
            if k % CHUNK_ROWS < CHUNK_ROWS - 2 {
                assert_eq!(Arc::as_ptr(log.chunks.last().unwrap()), before, "k {k}");
            }
        }
    }
}
