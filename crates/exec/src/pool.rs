//! The deterministic batch-evaluation pool.

use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use crate::histogram::LatencyHistogram;

/// Observability record of one [`ExecPool::evaluate_batch`] call: wall
/// time, how the batch was split across workers, and the latency
/// distribution of its evaluations. Pure telemetry — nothing in here
/// feeds back into the evaluation results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// Wall-clock duration of the whole batch, in nanoseconds.
    pub wall_nanos: u64,
    /// Candidates evaluated by each worker, indexed by worker id; worker 0
    /// is the calling thread. Length is the number of workers that ran
    /// the batch: `min(workers, items)`, and 1 for the serial path.
    pub per_worker: Vec<usize>,
    /// Log-spaced latency histogram over the batch, one entry per item
    /// (so its total is the item count). Items are timed by the piece:
    /// each piece a worker claims is timed once, and each of its items
    /// records the piece's mean, which keeps two clock reads per item
    /// off the hot path. The serial path times runs of as many items as
    /// a one-worker batch's pieces hold.
    pub histogram: LatencyHistogram,
    /// Workers that died mid-batch (simulated by an attached
    /// [`DeathPlan`]) and whose unfinished items were re-evaluated by the
    /// recovery pass. Zero without a plan.
    pub worker_deaths: usize,
}

/// Deterministic worker-death schedule for [`ExecPool::evaluate_batch`].
///
/// Death decisions are keyed on the *item index*, never on which worker
/// claims the item or in what order, so the set of death-triggering items
/// — and therefore [`ExecStats::worker_deaths`] — is identical across
/// reruns and thread interleavings: `min(workers, triggering items)`
/// workers die per batch. The evaluator is a pure function, so the
/// recovery pass reproduces every lost result bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeathPlan {
    /// Salt for the per-item death decision.
    pub seed: u64,
    /// Per-item death probability in parts-per-million.
    pub rate_ppm: u32,
}

impl DeathPlan {
    /// A plan killing the claiming worker on `rate_ppm` of item indices.
    pub fn new(seed: u64, rate_ppm: u32) -> Self {
        DeathPlan { seed, rate_ppm }
    }

    /// Whether claiming item `index` kills the worker (pure in
    /// `(seed, index)`).
    pub fn fires(&self, index: usize) -> bool {
        // FNV-1a over seed ‖ index, little-endian.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in self
            .seed
            .to_le_bytes()
            .into_iter()
            .chain(u64::try_from(index).unwrap_or(u64::MAX).to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h % 1_000_000 < u64::from(self.rate_ppm)
    }
}

/// A fixed-size evaluation worker pool.
///
/// The pool holds no threads between batches. Each call runs on the
/// calling thread as worker 0 and opens a `std::thread::scope` holding
/// `workers − 1` more threads, so a batch pays `workers − 1` thread
/// spawns and the caller computes instead of parking in `join`. Workers
/// claim contiguous pieces of at most 32 items off a shared queue and
/// write each result in place into the piece's output slots.
/// That keeps the engine dependency-free and the borrow story trivial
/// (workers may borrow the items, the outputs and the evaluator
/// directly).
///
/// **Determinism invariant:** every item's result is written into the
/// item's own pre-sized output slot, whichever worker claims it. The
/// outputs are therefore bit-identical to what a serial loop over the
/// items would produce, for any worker count and any thread
/// interleaving. Only [`ExecStats`] varies between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPool {
    workers: usize,
    death: Option<DeathPlan>,
}

/// Upper bound on the items of one claimed piece: a claim takes the
/// queue's lock once, so a piece amortizes it over many items, while
/// [`PIECES_PER_WORKER`] keeps small batches split finely enough that
/// every worker gets some.
const MAX_CHUNK: usize = 32;

/// Pieces per worker a batch is cut into when that gives pieces below
/// [`MAX_CHUNK`], so the batch's tail balances across the workers.
const PIECES_PER_WORKER: usize = 4;

impl ExecPool {
    /// A pool with exactly one worker: evaluation runs inline on the
    /// calling thread.
    pub fn serial() -> Self {
        ExecPool {
            workers: 1,
            death: None,
        }
    }

    /// A pool with `workers` workers (at least 1; `0` is clamped to 1).
    pub fn new(workers: usize) -> Self {
        ExecPool {
            workers: workers.max(1),
            death: None,
        }
    }

    /// Attaches a deterministic worker-death plan (builder style): a
    /// worker that claims a death-triggering item dies on the spot
    /// instead of evaluating it, and the post-join recovery pass
    /// re-evaluates every unfinished item inline. Results stay
    /// bit-identical to the plan-free pool; only [`ExecStats`] shows the
    /// carnage. The serial path never dies (there is no worker to lose).
    #[must_use]
    pub fn with_death_plan(mut self, plan: DeathPlan) -> Self {
        self.death = Some(plan);
        self
    }

    /// A pool sized to `std::thread::available_parallelism` (1 if the
    /// hardware parallelism cannot be determined).
    pub fn auto() -> Self {
        ExecPool::new(thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates `f` over every item, returning the results in item order
    /// plus the batch's [`ExecStats`].
    ///
    /// One output slot per item is filled in place by
    /// [`ExecPool::evaluate_in_place`], then collected into the result
    /// vector in place (the slots' allocation is reused). A panicking
    /// evaluation propagates out of this call for any worker count (the
    /// resilient runtime wraps evaluators that should not unwind).
    pub fn evaluate_batch<T, R, F>(&self, items: &[T], f: F) -> (Vec<R>, ExecStats)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        let stats = self.evaluate_in_place([slots.as_mut_slice()], |i, slot| {
            *slot = Some(f(&items[i]));
        });
        let results = slots
            .into_iter()
            .map(|slot| slot.expect("every slot is evaluated exactly once"))
            .collect();
        (results, stats)
    }

    /// Runs `f(index, slot)` exactly once on every slot of `outputs`,
    /// where `index` counts the slots across all outputs in order (the
    /// first slot of the second output follows the last of the first).
    /// Callers keep their inputs beside the outputs, indexed the same
    /// way, and let `f` write each result into its slot. Keeping one
    /// output per group (say, per task type) means a multi-group map
    /// needs one pass and no buffer spanning every group.
    ///
    /// With one worker (or at most one slot) this is a plain serial loop.
    /// Otherwise the calling thread works as worker 0 beside
    /// `min(workers, slots) − 1` scoped threads, each claiming contiguous
    /// pieces of one output at a time. A piece never spans two outputs.
    /// A panic in `f` reaches the caller after every worker has stopped:
    /// a spawned worker's panic through its join, worker 0's once the
    /// scope has joined the others.
    pub fn evaluate_in_place<'s, S, F>(
        &self,
        outputs: impl IntoIterator<Item = &'s mut [S]>,
        f: F,
    ) -> ExecStats
    where
        S: Send + 's,
        F: Fn(usize, &mut S) + Sync,
    {
        let start = Instant::now();
        let outputs: Vec<&'s mut [S]> = outputs.into_iter().collect();
        let total: usize = outputs.iter().map(|out| out.len()).sum();
        let workers = self.workers.min(total).max(1);
        if workers <= 1 {
            let mut histogram = LatencyHistogram::new();
            let chunk = chunk_len(total, 1);
            let mut base = 0;
            for piece in outputs.into_iter().flat_map(|out| out.chunks_mut(chunk)) {
                run_piece(&f, base, piece, &mut histogram);
                base += piece.len();
            }
            return ExecStats {
                wall_nanos: duration_nanos(start),
                per_worker: vec![total],
                histogram,
                worker_deaths: 0,
            };
        }

        let queue = WorkQueue::new(outputs, total, workers, self.death);
        let reports: Vec<WorkerReport<'s, S>> = thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers)
                .map(|_| scope.spawn(|| queue.work(&f)))
                .collect();
            // The calling thread is worker 0. Should it panic, the scope
            // joins the spawned workers before the panic resumes.
            let mut reports = vec![queue.work(&f)];
            // Join in spawn order so `per_worker` is indexed by worker id.
            // A spawned worker's panic (i.e. an evaluator panic)
            // resurfaces here on the calling thread, as in the serial
            // path.
            reports.extend(spawned.into_iter().map(|h| match h.join() {
                Ok(report) => report,
                Err(payload) => std::panic::resume_unwind(payload),
            }));
            reports
        });

        let mut histogram = LatencyHistogram::new();
        let mut per_worker = Vec::with_capacity(workers);
        let mut worker_deaths = 0;
        let mut unfinished = queue.pieces.into_inner().expect("work queue poisoned");
        for report in reports {
            per_worker.push(report.evaluated);
            histogram.merge(&report.histogram);
            if let Some(lost) = report.lost {
                worker_deaths += 1;
                unfinished.push(lost);
            }
        }
        // Recovery pass: items lost to dead workers (each dead worker's
        // triggering item, plus anything left unclaimed once every worker
        // died) are evaluated inline. `f` is pure, so the recovered
        // results are bit-identical to what the lost workers would have
        // produced. Without a death plan nothing is ever left over.
        for (base, piece) in unfinished {
            run_piece(&f, base, piece, &mut histogram);
        }
        ExecStats {
            wall_nanos: duration_nanos(start),
            per_worker,
            histogram,
            worker_deaths,
        }
    }
}

/// A contiguous run of output slots and the index of its first slot.
type Piece<'s, S> = (usize, &'s mut [S]);

/// What one worker did: how many items it evaluated, their latencies,
/// and, if it died, the piece holding the item it died on.
struct WorkerReport<'s, S> {
    evaluated: usize,
    histogram: LatencyHistogram,
    lost: Option<Piece<'s, S>>,
}

/// The unclaimed pieces of one batch, next piece on top.
struct WorkQueue<'s, S> {
    pieces: Mutex<Vec<Piece<'s, S>>>,
    death: Option<DeathPlan>,
}

impl<'s, S> WorkQueue<'s, S> {
    /// Cuts every output into pieces of [`chunk_len`] slots. Under a
    /// death plan each death-triggering slot is a piece of its own: the
    /// worker that claims it dies holding nothing else, and the rest of
    /// its chunk stays queued for the live workers. Deaths therefore stay
    /// `min(workers, triggering items)`, as when items were claimed one
    /// at a time.
    fn new(
        outputs: Vec<&'s mut [S]>,
        total: usize,
        workers: usize,
        death: Option<DeathPlan>,
    ) -> Self {
        let chunk = chunk_len(total, workers);
        let fires = |i: usize| death.is_some_and(|plan| plan.fires(i));
        let mut pieces = Vec::with_capacity(total.div_ceil(chunk) + outputs.len());
        let mut base = 0;
        for mut rest in outputs {
            while !rest.is_empty() {
                let len = if fires(base) {
                    1
                } else {
                    (1..chunk.min(rest.len()))
                        .find(|&k| fires(base + k))
                        .unwrap_or(chunk.min(rest.len()))
                };
                let (piece, tail) = std::mem::take(&mut rest).split_at_mut(len);
                pieces.push((base, piece));
                base += len;
                rest = tail;
            }
        }
        pieces.reverse();
        WorkQueue {
            pieces: Mutex::new(pieces),
            death,
        }
    }

    /// Pops the next piece. A method of its own so the lock is released
    /// before the piece is evaluated, not held through a loop body.
    fn claim(&self) -> Option<Piece<'s, S>> {
        self.pieces.lock().expect("work queue poisoned").pop()
    }

    /// One worker's loop: claim pieces until the queue is empty or the
    /// worker dies.
    fn work<F: Fn(usize, &mut S)>(&self, f: &F) -> WorkerReport<'s, S> {
        let mut evaluated = 0;
        let mut histogram = LatencyHistogram::new();
        while let Some((base, piece)) = self.claim() {
            if self.death.is_some_and(|plan| plan.fires(base)) {
                // Simulated worker death: the claimed item stays
                // unevaluated for the recovery pass.
                return WorkerReport {
                    evaluated,
                    histogram,
                    lost: Some((base, piece)),
                };
            }
            run_piece(f, base, piece, &mut histogram);
            evaluated += piece.len();
        }
        WorkerReport {
            evaluated,
            histogram,
            lost: None,
        }
    }
}

/// Slots per piece: [`PIECES_PER_WORKER`] pieces per worker, capped at
/// [`MAX_CHUNK`]. Any batch of two or more slots is cut into at least
/// two pieces, so a second worker always has something to claim.
fn chunk_len(total: usize, workers: usize) -> usize {
    total
        .div_ceil(workers * PIECES_PER_WORKER)
        .clamp(1, MAX_CHUNK)
}

/// Runs `f(index, slot)` over the slots of one piece, whose first slot
/// has index `base`, and records the piece's mean latency once per slot.
fn run_piece<S, F: Fn(usize, &mut S)>(
    f: &F,
    base: usize,
    piece: &mut [S],
    histogram: &mut LatencyHistogram,
) {
    let t0 = Instant::now();
    for (offset, slot) in piece.iter_mut().enumerate() {
        f(base + offset, slot);
    }
    histogram.record_mean(duration_nanos(t0), piece.len());
}

fn duration_nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_matches_serial_bitwise() {
        // f64 results with bit-sensitive values: identical merge order is
        // observable through to_bits().
        let items: Vec<f64> = (0..500).map(|i| f64::from(i) * 0.1 - 25.0).collect();
        let eval = |x: &f64| (x.sin() * 1e9, x.to_bits().rotate_left(7));
        let (serial, _) = ExecPool::serial().evaluate_batch(&items, eval);
        for workers in [2, 3, 8, 64] {
            let (parallel, stats) = ExecPool::new(workers).evaluate_batch(&items, eval);
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.0.to_bits(), b.0.to_bits(), "workers={workers}");
                assert_eq!(a.1, b.1);
            }
            assert_eq!(stats.per_worker.iter().sum::<usize>(), items.len());
            assert_eq!(stats.histogram.total(), items.len() as u64);
        }
    }

    #[test]
    fn empty_and_single_batches() {
        let pool = ExecPool::new(8);
        let (empty, stats) = pool.evaluate_batch(&[] as &[u32], |x| x + 1);
        assert!(empty.is_empty());
        assert_eq!(stats.per_worker, vec![0]);
        let (one, stats) = pool.evaluate_batch(&[41u32], |x| x + 1);
        assert_eq!(one, vec![42]);
        assert_eq!(stats.per_worker, vec![1], "one item stays serial");
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(ExecPool::new(0).workers(), 1);
        assert_eq!(ExecPool::serial().workers(), 1);
        assert!(ExecPool::auto().workers() >= 1);
    }

    #[test]
    fn every_item_evaluated_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let calls = AtomicU64::new(0);
        let items: Vec<u64> = (0..1000).collect();
        let (results, _) = ExecPool::new(4).evaluate_batch(&items, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x * 2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(results[999], 1998);
    }

    #[test]
    fn death_plan_decisions_are_deterministic() {
        let plan = DeathPlan::new(42, 100_000); // 10% of indices
        let fired: Vec<usize> = (0..1000).filter(|&i| plan.fires(i)).collect();
        assert!(!fired.is_empty(), "10% of 1000 indices should fire");
        assert!(fired.len() < 500, "and nowhere near all of them");
        let again: Vec<usize> = (0..1000).filter(|&i| plan.fires(i)).collect();
        assert_eq!(fired, again, "pure in (seed, index)");
        let other: Vec<usize> = (0..1000)
            .filter(|&i| DeathPlan::new(43, 100_000).fires(i))
            .collect();
        assert_ne!(fired, other, "a different seed fires differently");
        assert!((0..1000).all(|i| !DeathPlan::new(42, 0).fires(i)));
    }

    #[test]
    fn worker_deaths_recover_bitwise() {
        let items: Vec<f64> = (0..500).map(|i| f64::from(i) * 0.1 - 25.0).collect();
        let eval = |x: &f64| (x.sin() * 1e9, x.to_bits().rotate_left(7));
        let (baseline, _) = ExecPool::serial().evaluate_batch(&items, eval);
        let plan = DeathPlan::new(7, 60_000);
        let triggering = (0..items.len()).filter(|&i| plan.fires(i)).count();
        assert!(triggering > 0, "the storm must actually fire");
        for workers in [2, 4, 8] {
            let pool = ExecPool::new(workers).with_death_plan(plan);
            let (results, stats) = pool.evaluate_batch(&items, eval);
            assert_eq!(results, baseline, "workers={workers}");
            assert_eq!(
                stats.worker_deaths,
                workers.min(triggering),
                "every worker that claims a triggering item dies exactly once"
            );
            assert_eq!(stats.histogram.total(), items.len() as u64);
        }
        // The serial path has no workers to lose.
        let (results, stats) = ExecPool::serial()
            .with_death_plan(plan)
            .evaluate_batch(&items, eval);
        assert_eq!(results, baseline);
        assert_eq!(stats.worker_deaths, 0);
    }

    #[test]
    fn evaluator_panic_propagates() {
        // Suppress the default panic hook's stderr spew for this test.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            ExecPool::new(4).evaluate_batch(&items, |x| {
                if *x == 13 {
                    panic!("unlucky");
                }
                *x
            })
        });
        std::panic::set_hook(prev);
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn evaluator_panic_on_the_calling_thread_propagates_after_join() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let caller = thread::current().id();
        let caller_panicked = AtomicBool::new(false);
        let running = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ExecPool::new(2).evaluate_batch(&items, |x| {
                if thread::current().id() == caller {
                    caller_panicked.store(true, Ordering::SeqCst);
                    panic!("worker 0");
                }
                running.fetch_add(1, Ordering::SeqCst);
                // Keep the spawned worker busy while worker 0 unwinds.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !caller_panicked.load(Ordering::SeqCst) && Instant::now() < deadline {
                    thread::yield_now();
                }
                thread::sleep(Duration::from_micros(200));
                finished.fetch_add(1, Ordering::SeqCst);
                running.fetch_sub(1, Ordering::SeqCst);
                *x
            })
        }));
        std::panic::set_hook(prev);
        let payload = result.expect_err("worker 0's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker 0"));
        assert!(
            caller_panicked.load(Ordering::SeqCst),
            "worker 0 ran an item"
        );
        assert!(finished.load(Ordering::SeqCst) > 0, "worker 1 ran items");
        assert_eq!(
            running.load(Ordering::SeqCst),
            0,
            "the spawned worker finished before the panic resumed"
        );
    }

    #[test]
    fn trace_records_both_workers_of_a_two_worker_batch() {
        use crate::{Executor, RunTelemetry};
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;
        let sink = RunTelemetry::sink();
        let exec = Executor::new(ExecPool::new(2))
            .with_label("both")
            .with_telemetry(sink.clone());
        let other_started = AtomicBool::new(false);
        let items: Vec<u32> = (0..60).collect();
        let results = exec.evaluate_batch(0, &items, |&x| {
            if x == 0 {
                // Whoever holds item 0 waits until some other item has
                // started; only the other worker can start one.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !other_started.load(Ordering::SeqCst) && Instant::now() < deadline {
                    thread::yield_now();
                }
            } else {
                other_started.store(true, Ordering::SeqCst);
            }
            x + 1
        });
        assert_eq!(results, (1..=60).collect::<Vec<u32>>());
        let trace = sink.lock().unwrap().trace();
        let line = trace
            .lines()
            .find(|l| l.starts_with("trace-v1 phase=both"))
            .expect("one trace-v1 record");
        let per_worker: Vec<usize> = line
            .split(' ')
            .find_map(|t| t.strip_prefix("per_worker="))
            .expect("per_worker token")
            .split('|')
            .map(|n| n.parse().unwrap())
            .collect();
        assert_eq!(per_worker.len(), 2, "{line}");
        assert!(!per_worker.contains(&0), "both workers take items: {line}");
        assert_eq!(per_worker.iter().sum::<usize>(), items.len());
    }

    #[test]
    fn in_place_outputs_share_one_index_space() {
        // Three outputs of uneven length: indices run across them in
        // order, and no piece spans two outputs.
        let mut outputs: Vec<Vec<usize>> = vec![vec![0; 70], vec![], vec![0; 5], vec![0; 101]];
        let plan = DeathPlan::new(7, 60_000);
        for pool in [
            ExecPool::serial(),
            ExecPool::new(2),
            ExecPool::new(5),
            ExecPool::new(3).with_death_plan(plan),
        ] {
            let stats =
                pool.evaluate_in_place(outputs.iter_mut().map(Vec::as_mut_slice), |i, slot| {
                    *slot = i * 3 + 1;
                });
            let flat: Vec<usize> = outputs.iter().flatten().copied().collect();
            assert_eq!(flat, (0..176).map(|i| i * 3 + 1).collect::<Vec<_>>());
            assert_eq!(stats.histogram.total(), 176);
            for out in &mut outputs {
                out.fill(0);
            }
        }
    }
}
