//! Own-rolled worker pool with a bounded submission queue.
//!
//! `std`-only: a `Mutex<VecDeque>` of boxed jobs, one condvar waking
//! idle workers, and explicit admission control —
//! [`WorkerPool::try_execute`] *sheds* work with
//! [`SvcError::Overloaded`] when the queue is full, so latency under
//! overload stays bounded instead of growing with an unbounded queue.
//!
//! A job that panics is caught and counted (`svc.pool.job_panics`);
//! the worker thread survives.

use crate::error::SvcError;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    jobs_available: Condvar,
    capacity: usize,
    job_panics: AtomicU64,
}

/// A fixed-size thread pool over a bounded job queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers over a queue of `queue_capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `queue_capacity` is zero, or if the OS
    /// refuses to spawn a thread.
    pub fn new(threads: usize, queue_capacity: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        assert!(queue_capacity >= 1, "need at least one queue slot");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(queue_capacity),
                shutdown: false,
            }),
            jobs_available: Condvar::new(),
            capacity: queue_capacity,
            job_panics: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn svc worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Configured queue capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Jobs that panicked since the pool started (the workers
    /// survive; see `worker_loop`'s `catch_unwind`).
    pub fn job_panics(&self) -> u64 {
        self.shared.job_panics.load(Ordering::Relaxed)
    }

    /// Submits a job, shedding it with [`SvcError::Overloaded`] when
    /// the queue is full — the admission-control entry point for
    /// query traffic.
    pub fn try_execute<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), SvcError> {
        let mut st = self.shared.state.lock().unwrap();
        if st.shutdown {
            return Err(SvcError::Shutdown);
        }
        let depth = st.queue.len();
        if depth >= self.shared.capacity {
            obs::counter!("svc.pool.shed").inc();
            return Err(SvcError::Overloaded {
                depth,
                capacity: self.shared.capacity,
            });
        }
        st.queue.push_back(Box::new(job));
        obs::histogram!("svc.pool.queue_depth").record(st.queue.len() as u64);
        drop(st);
        self.shared.jobs_available.notify_one();
        Ok(())
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: already-queued jobs still run, then the
    /// workers exit and are joined.
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.jobs_available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.jobs_available.wait(st).unwrap();
            }
        };
        obs::counter!("svc.pool.jobs").inc();
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            shared.job_panics.fetch_add(1, Ordering::Relaxed);
            obs::counter!("svc.pool.job_panics").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(4, 128);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            let tx = tx.clone();
            pool.try_execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
                let _ = tx.send(());
            })
            .unwrap();
        }
        for _ in 0..100 {
            rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let pool = WorkerPool::new(1, 2);
        let (block_tx, block_rx) = mpsc::channel::<()>();
        // Occupy the single worker...
        pool.try_execute(move || {
            let _ = block_rx.recv();
        })
        .unwrap();
        // ...then fill the queue; eventually a submit must shed.
        let mut shed = None;
        for _ in 0..8 {
            if let Err(e) = pool.try_execute(|| {}) {
                shed = Some(e);
                break;
            }
        }
        match shed {
            Some(SvcError::Overloaded { depth, capacity }) => {
                assert_eq!(capacity, 2);
                assert!(depth >= 2);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        drop(block_tx);
    }

    #[test]
    fn drop_runs_queued_jobs_before_exit() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1, 64);
            for _ in 0..20 {
                let c = Arc::clone(&counter);
                pool.try_execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
            // Drop joins after draining.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1, 8);
        assert_eq!(pool.job_panics(), 0);
        pool.try_execute(|| panic!("job boom")).unwrap();
        let (tx, rx) = mpsc::channel();
        pool.try_execute(move || {
            let _ = tx.send(42);
        })
        .unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)).unwrap(), 42);
        assert_eq!(pool.job_panics(), 1);
    }
}
