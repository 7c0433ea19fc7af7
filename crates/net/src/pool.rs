//! The workspace's one worker pool: a deterministic claim queue.
//!
//! [`run`] hands a job list to up to `threads` scoped workers. Each
//! worker claims the next unclaimed job from one shared queue, so the
//! workers stay busy while jobs differ in cost, and every result lands
//! in its job's slot: the returned vector is in job order for any
//! thread count and any scheduling. There is one code path for every thread
//! count, one worker included.
//!
//! Worker utilisation is built in. Given a [`Tracer`] and a phase name,
//! each worker records one operational `worker` span (`phase`,
//! `worker`, `busy_us`, `span_us`, `items`) in a builder of its own, as
//! [`TraceBuilder`] stamps wall time when a span opens. Which worker ran
//! which job is up to the scheduler, so these spans are operational:
//! the stripped trace drops them.

use std::sync::Mutex;
use std::time::Instant;
use topics_obs::{TraceBuilder, Tracer, Word};

/// What [`run`] returns.
#[derive(Debug)]
pub struct Pooled<R> {
    /// One result per job, in job order.
    pub results: Vec<R>,
    /// One `worker` span builder per worker, in worker order; empty
    /// unless [`run`] was given an enabled tracer.
    pub workers: Vec<TraceBuilder>,
}

/// The worker count for work that has no `--threads` of its own: the
/// host's [`available_parallelism`](std::thread::available_parallelism)
/// (which honours the process's CPU affinity), 4 if it is unknown.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// `items` cut into at most `workers` contiguous chunks of near-equal
/// length, in order: the jobs for work that splits one slice.
pub fn chunks<T>(items: &[T], workers: usize) -> Vec<&[T]> {
    items
        .chunks(items.len().div_ceil(workers.max(1)).max(1))
        .collect()
}

/// Run `work` on every job over up to `threads` workers (never more
/// workers than jobs) and return the results in job order.
///
/// `trace` names the tracer and phase the `worker` spans are recorded
/// for. A panic in `work` propagates to the caller once every worker
/// has stopped.
pub fn run<J, R, F>(
    jobs: Vec<J>,
    threads: usize,
    trace: Option<(&Tracer, Word)>,
    work: F,
) -> Pooled<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let count = jobs.len();
    let workers = threads.max(1).min(count);
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = Vec::with_capacity(count);
    slots.resize_with(count, || None);
    let mut spans = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (queue, work) = (&queue, &work);
                scope.spawn(move || {
                    let mut tb = trace.and_then(|(tracer, _)| tracer.visit_builder());
                    let span = tb.as_mut().zip(trace).map(|(tb, (_, phase))| {
                        let idx = tb.open_op(Word::Worker, None);
                        tb.field(idx, Word::Phase, phase);
                        tb.field(idx, Word::Worker, w);
                        idx
                    });
                    let started = Instant::now();
                    let mut busy_us = 0u64;
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let claimed = queue.lock().expect("pool queue lock").next();
                        let Some((at, job)) = claimed else { break };
                        let job_started = span.map(|_| Instant::now());
                        done.push((at, work(job)));
                        if let Some(t) = job_started {
                            busy_us += t.elapsed().as_micros() as u64;
                        }
                    }
                    if let (Some(tb), Some(idx)) = (tb.as_mut(), span) {
                        tb.field(idx, Word::BusyUs, busy_us);
                        tb.field(idx, Word::SpanUs, started.elapsed().as_micros() as u64);
                        tb.field(idx, Word::Items, done.len());
                        tb.close(idx, None);
                    }
                    (done, tb)
                })
            })
            .collect();
        let mut panic = None;
        for handle in handles {
            match handle.join() {
                Ok((done, tb)) => {
                    for (at, result) in done {
                        slots[at] = Some(result);
                    }
                    spans.extend(tb);
                }
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
    Pooled {
        results: slots
            .into_iter()
            .map(|r| r.expect("every job ran once"))
            .collect(),
        workers: spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Sum of the `items` fields of the sealed `worker` spans.
    fn traced_items(tracer: &Tracer, workers: Vec<TraceBuilder>) -> (usize, u64) {
        let phase = tracer.phase("pool-test");
        for tb in workers {
            phase.attach(tb);
        }
        phase.end(None);
        let trace = tracer.finish();
        let spans: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == Word::Worker)
            .collect();
        let items = spans
            .iter()
            .map(|s| match s.field(Word::Items) {
                Some(topics_obs::FieldValue::U64(n)) => *n,
                other => panic!("items field: {other:?}"),
            })
            .sum();
        (spans.len(), items)
    }

    #[test]
    fn results_come_back_in_job_order_each_job_once_items_summing_to_jobs() {
        for threads in [1usize, 2, 3, 8] {
            for jobs in [0, 1, threads - 1, 1000] {
                let runs: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
                let tracer = Tracer::enabled();
                let out = run(
                    (0..jobs).collect(),
                    threads,
                    Some((&tracer, Word::Crawl)),
                    |j| {
                        runs[j].fetch_add(1, Ordering::Relaxed);
                        j * 3
                    },
                );
                let tag = format!("threads={threads} jobs={jobs}");
                assert_eq!(
                    out.results,
                    (0..jobs).map(|j| j * 3).collect::<Vec<_>>(),
                    "{tag}"
                );
                assert!(
                    runs.iter().all(|n| n.load(Ordering::Relaxed) == 1),
                    "{tag}: a job ran other than once"
                );
                let (workers, items) = traced_items(&tracer, out.workers);
                assert_eq!(workers, threads.min(jobs), "{tag}: one span per worker");
                assert_eq!(items, jobs as u64, "{tag}: worker items");
            }
        }
    }

    #[test]
    fn chunks_cover_the_items_in_order_one_per_worker_at_most() {
        for workers in [0usize, 1, 2, 3, 8] {
            for len in [0usize, 1, 2, 7, 1000] {
                let items: Vec<usize> = (0..len).collect();
                let cut = chunks(&items, workers);
                assert!(
                    cut.len() <= workers.max(1),
                    "{len} items, {workers} workers"
                );
                assert!(cut.iter().all(|c| !c.is_empty()));
                assert_eq!(cut.concat(), items, "{len} items, {workers} workers");
            }
        }
    }

    #[test]
    fn an_untraced_run_records_no_worker_spans() {
        let out = run(vec![1, 2, 3], 2, None, |j| j + 1);
        assert_eq!(out.results, [2, 3, 4]);
        assert!(out.workers.is_empty());
        let disabled = run(vec![1], 2, Some((&Tracer::disabled(), Word::Crawl)), |j| j);
        assert!(disabled.workers.is_empty());
    }

    #[test]
    fn a_panicking_job_propagates_its_panic() {
        for threads in [1usize, 3] {
            let caught = std::panic::catch_unwind(|| {
                run((0..50).collect(), threads, None, |j: usize| {
                    assert!(j != 17, "job 17 fails");
                    j
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("job 17 fails"), "{message:?}");
        }
    }
}
