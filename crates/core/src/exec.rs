//! Shared scoped-thread execution helper.
//!
//! Both the Θ-sweep fan-out ([`crate::sweep::sweep_partitions_ctl`])
//! and the session's dirty-resource re-sweep
//! ([`crate::session::AnalysisSession`]) distribute independent jobs
//! across a bounded pool of scoped threads, and batch drivers reuse the
//! same pool to fan out whole instances. The helper lives here so there
//! is exactly one work-stealing loop to reason about: results come back
//! in job order regardless of which worker ran which job, which is what
//! makes parallel folds bit-identical to their serial counterparts.
//!
//! A panicking job does **not** abort the process or poison its
//! siblings: every worker is joined first, the surviving results are
//! discarded, and only then is the first panic payload re-raised on the
//! calling thread (in worker-spawn order, for determinism). Callers that
//! must survive a panicking job wrap the job body in
//! `std::panic::catch_unwind` and turn the payload into a value — that
//! is exactly what the `rtlb batch` driver does.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use rtlb_obs::{span, Label, Probe};

/// Resolves a `parallelism` knob: `0` means one thread per available
/// core, any other value is taken literally.
pub fn effective_threads(parallelism: usize) -> usize {
    if parallelism == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        parallelism
    }
}

/// Splits `count` sweep columns into contiguous chunk spans.
///
/// `chunk_columns` forces an explicit chunk size (the `--chunk=` knob
/// and the differential chunking tests use this); `0` picks one
/// automatically: the whole range when the pool is serial, otherwise
/// about four chunks per worker — small enough that work stealing can
/// balance uneven blocks, large enough (at least 8 columns) that merge
/// overhead stays negligible. Every split covers `0..count` exactly
/// once, in ascending order, which is what makes the chunk-maxima fold
/// bit-identical to the serial scan.
pub fn chunk_spans(count: usize, threads: usize, chunk_columns: usize) -> Vec<Range<usize>> {
    if count == 0 {
        return Vec::new();
    }
    let size = if chunk_columns > 0 {
        chunk_columns
    } else if threads <= 1 {
        count
    } else {
        count.div_ceil(threads * 4).max(8)
    };
    let mut spans = Vec::with_capacity(count.div_ceil(size));
    let mut start = 0;
    while start < count {
        let end = (start + size).min(count);
        spans.push(start..end);
        start = end;
    }
    spans
}

/// Runs `count` independent jobs on up to `threads` scoped threads and
/// returns their results in job order. Each worker thread (including the
/// calling thread on the serial path) runs under a `sweep.worker` span so
/// trace sinks get one swim-lane per worker.
///
/// # Panics
///
/// If a job panics, all workers are first joined (their completed jobs
/// are discarded), then the first panic payload — in worker-spawn order —
/// is resumed on the calling thread. Jobs that must not unwind across
/// the pool should catch their own panics and return them as values.
pub fn run_jobs<T, F>(probe: &dyn Probe, threads: usize, count: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(count);
    if workers <= 1 {
        let _worker = span(probe, "sweep.worker", Label::None);
        return (0..count).map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let _worker = span(probe, "sweep.worker", Label::None);
                    let mut done = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        if job >= count {
                            break done;
                        }
                        done.push((job, run(job)));
                    }
                })
            })
            .collect();
        // Join every worker before propagating any panic: a bad job must
        // not strand its siblings mid-flight or tear down their results
        // while they still run.
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => collected.extend(done),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });

    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (job, value) in collected {
        slots[job] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtlb_obs::NULL_PROBE;

    #[test]
    fn run_jobs_preserves_job_order() {
        for threads in [1, 2, 5] {
            let out = run_jobs(&NULL_PROBE, threads, 23, |j| j * j);
            assert_eq!(out, (0..23).map(|j| j * j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn effective_threads_resolves_zero_to_cores() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
    }

    /// Chunk spans must tile `0..count` exactly, in ascending order, for
    /// every combination of pool size and explicit chunk size.
    #[test]
    fn chunk_spans_tile_the_range() {
        for count in [0usize, 1, 7, 8, 9, 63, 64, 100] {
            for threads in [0usize, 1, 2, 3, 8] {
                for chunk_columns in [0usize, 1, 2, 3, 7, 64] {
                    let spans = chunk_spans(count, threads, chunk_columns);
                    let mut covered = 0;
                    for s in &spans {
                        assert_eq!(s.start, covered, "gapless ascending tiling");
                        assert!(s.end > s.start, "no empty chunk");
                        covered = s.end;
                    }
                    assert_eq!(covered, count);
                }
            }
        }
    }

    #[test]
    fn chunk_spans_honor_explicit_size_and_serial_default() {
        // Explicit size wins regardless of the pool.
        assert_eq!(chunk_spans(10, 8, 3), vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(chunk_spans(10, 1, 4), vec![0..4, 4..8, 8..10]);
        // Serial pools default to one chunk; parallel pools oversplit by
        // 4x for stealing, with a floor of 8 columns per chunk.
        assert_eq!(chunk_spans(100, 1, 0), vec![0..100]);
        assert_eq!(chunk_spans(100, 2, 0).len(), 8); // ceil(100/8) chunks of 13
        assert!(chunk_spans(16, 8, 0)
            .iter()
            .all(|s| s.len() >= 8 || s.end == 16));
    }

    /// One panicking job must not abort the process; the panic surfaces
    /// on the caller only after every sibling worker has been joined.
    #[test]
    fn panicking_job_propagates_after_join() {
        use std::sync::atomic::AtomicUsize;
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_jobs(&NULL_PROBE, 4, 32, |j| {
                if j == 3 {
                    panic!("job 3 exploded");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                j
            })
        }));
        let payload = result.expect_err("the panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_default()
            .to_owned();
        assert!(message.contains("job 3 exploded"), "{message}");
        // Sibling workers drained the queue rather than being stranded.
        assert!(completed.load(Ordering::Relaxed) >= 28);
    }
}
