//! A minimal multi-threaded async executor.
//!
//! The container this workspace builds in has no async runtime crate, so
//! `omn-node` brings its own: a classic wake-queue executor built from
//! `std::task::Wake`, a `Mutex`/`Condvar` injector queue, and a fixed pool
//! of worker threads. It supports exactly what the node runtime needs —
//! `spawn` + cooperative wakeups from the bounded channels in
//! [`chan`](crate::chan) — and nothing more (no IO reactor, no timers;
//! simulated time is driven by the link supervisor).
//!
//! The ready queue's mutex also guards two words next to the queue: the
//! number of idle workers parked on the condvar, and the shutdown flag. A
//! wake notifies the condvar only when a worker is idle (a notify is a
//! syscall, and a busy pool has nobody to wake). The shutdown flag is set
//! under the same mutex, so a worker that has just seen it clear cannot
//! miss the shutdown notify between that check and parking.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::JoinHandle;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// What the ready-queue mutex guards.
#[derive(Default)]
struct Ready {
    queue: VecDeque<Arc<Task>>,
    /// Workers parked on [`Shared::available`].
    idle: usize,
    shutdown: bool,
}

/// Shared executor state: the ready queue and its condvar.
struct Shared {
    ready: Mutex<Ready>,
    available: Condvar,
}

impl Shared {
    /// Locks the ready queue, recovering from a poisoned mutex: a worker
    /// that panicked inside a task poll never leaves the queue itself
    /// half-mutated (pushes and pops are single operations), so the
    /// remaining workers can keep scheduling the surviving tasks.
    fn ready(&self) -> MutexGuard<'_, Ready> {
        self.ready.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One spawned task. `queued` deduplicates wakeups: a task is pushed onto
/// the ready queue at most once until a worker picks it up.
struct Task {
    future: Mutex<Option<BoxFuture>>,
    queued: AtomicBool,
    shared: Arc<Shared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            let shared = Arc::clone(&self.shared);
            let mut ready = shared.ready();
            ready.queue.push_back(self);
            let idle = ready.idle > 0;
            drop(ready);
            if idle {
                shared.available.notify_one();
            }
        }
    }
}

/// The executor: spawn futures, then [`Executor::shutdown`] (or drop it)
/// to join the workers once all communication has quiesced.
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl Executor {
    /// Starts a pool of `threads` workers (at least one).
    #[must_use]
    pub fn new(threads: usize) -> Executor {
        let shared = Arc::new(Shared {
            ready: Mutex::new(Ready::default()),
            available: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("omn-node-worker-{i}"))
                    .spawn(move || worker(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Executor { shared, workers }
    }

    /// Spawns a future onto the pool.
    pub fn spawn<F>(&self, future: F)
    where
        F: Future<Output = ()> + Send + 'static,
    {
        let task = Arc::new(Task {
            future: Mutex::new(Some(Box::pin(future))),
            queued: AtomicBool::new(false),
            shared: Arc::clone(&self.shared),
        });
        task.wake();
    }

    /// Stops the workers after the ready queue drains of running work and
    /// joins them. Tasks still pending on a channel are dropped in place
    /// (their futures are simply never polled again). Dropping the
    /// executor does the same.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.ready().shutdown = true;
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker(shared: &Arc<Shared>) {
    loop {
        let task = {
            let mut ready = shared.ready();
            loop {
                if let Some(t) = ready.queue.pop_front() {
                    break t;
                }
                if ready.shutdown {
                    return;
                }
                ready.idle += 1;
                ready = shared
                    .available
                    .wait(ready)
                    .unwrap_or_else(PoisonError::into_inner);
                ready.idle -= 1;
            }
        };
        // Clear the dedup flag *before* polling: a wake that lands during
        // the poll re-queues the task (the second worker then briefly
        // blocks on the future mutex, which is fine).
        task.queued.store(false, Ordering::Release);
        let waker = Waker::from(Arc::clone(&task));
        let mut cx = Context::from_waker(&waker);
        let mut slot = match task.future.lock() {
            Ok(slot) => slot,
            // The task panicked mid-poll on another worker: its future
            // is in an unknown state and must never be polled again.
            // Drop it in place; the rest of the pool keeps running.
            Err(poisoned) => {
                let mut slot = poisoned.into_inner();
                *slot = None;
                slot
            }
        };
        if let Some(fut) = slot.as_mut() {
            if let Poll::Ready(()) = fut.as_mut().poll(&mut cx) {
                *slot = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn spawned_futures_run_to_completion() {
        let exec = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..64 {
            let counter = Arc::clone(&counter);
            let tx = tx.clone();
            exec.spawn(async move {
                counter.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..64 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        exec.shutdown();
    }

    #[test]
    fn idle_workers_pick_up_tasks_spawned_after_they_parked() {
        let exec = Executor::new(2);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while exec.shared.ready().idle < 2 {
            assert!(std::time::Instant::now() < deadline, "workers never parked");
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel();
        for i in 0..4 {
            let tx = tx.clone();
            exec.spawn(async move { tx.send(i).unwrap() });
        }
        let mut got: Vec<i32> = (0..4)
            .map(|_| rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, [0, 1, 2, 3]);
        exec.shutdown();
    }

    /// Shutdown right after the last task finishes races a worker between
    /// its shutdown check and parking; an unlocked flag store loses the
    /// notify there and `shutdown` hangs in `join`.
    #[test]
    fn shutdown_never_loses_its_wakeup() {
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..3000 {
                let exec = Executor::new(2);
                let done = Arc::new(AtomicBool::new(false));
                let flag = Arc::clone(&done);
                exec.spawn(async move { flag.store(true, Ordering::Release) });
                // Spin rather than block, so shutdown lands while the
                // worker that ran the task heads back to park.
                while !done.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                exec.shutdown();
            }
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("Executor::shutdown hung: a worker missed the shutdown wakeup");
    }

    #[test]
    fn tasks_resume_after_cross_task_wakeups() {
        let exec = Executor::new(2);
        let (tx, rx) = crate::chan::channel::<u32>(4);
        let (done_tx, done_rx) = mpsc::channel();
        exec.spawn(async move {
            let mut sum = 0;
            let mut rx = rx;
            while let Some(batch) = rx.recv_batch().await {
                sum += batch.item.unwrap_or(0);
            }
            done_tx.send(sum).unwrap();
        });
        exec.spawn(async move {
            for v in 1..=100u32 {
                tx.send(v).await.unwrap();
            }
        });
        let sum = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        assert_eq!(sum, 5050);
        exec.shutdown();
    }
}
