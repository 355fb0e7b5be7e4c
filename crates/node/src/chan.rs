//! Bounded multi-producer single-consumer channels usable from both async
//! tasks (futures polled by [`rt::Executor`](crate::rt::Executor)) and
//! plain threads (the blocking link supervisor).
//!
//! Each channel carries two lanes. The item queue is bounded by the
//! channel's capacity: senders block (or return `Pending`) when it is
//! full, receivers when it is empty. The byte lane is one `Vec<u8>` that
//! [`Sender::append`] writes into under the channel's mutex, past any
//! bound, and that [`Receiver::recv_batch`] takes whole, together with
//! the next queued item. The node runtime carries peer wire frames in the
//! byte lane and the supervisor's dispatches in the bounded queue, so a
//! runtime with 10⁴ node tasks buffers at most nodes × capacity
//! dispatches. Closure is bidirectional: dropping the receiver fails
//! subsequent sends, dropping the last sender drains the receiver to
//! `None`.
//!
//! # Wakeups
//!
//! Async tasks park by leaving a [`Waker`]; plain threads park on a
//! [`Condvar`]. A condvar notify is a syscall whether or not anyone
//! waits, so the channel notifies one only when a thread is parked on it:
//! `recv_blocking` and `send_blocking` count themselves into the state
//! (under the mutex, before `wait`) and out again after it, and every
//! push, append, pop and close checks that count under the same mutex. A
//! waiter that has not counted itself in yet has not checked its
//! condition yet either, so it sees the new state without a notify. Only
//! the last `Sender` drop closes the channel, so only that one wakes
//! anybody.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Context, Poll, Waker};

/// The send side of the channel was used after the receiver went away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel closed")
    }
}

impl std::error::Error for Closed {}

struct State<T> {
    queue: VecDeque<T>,
    /// The byte lane: appended to past the capacity bound, taken whole
    /// by [`Receiver::recv_batch`].
    lane: Vec<u8>,
    /// The length of the last batch taken from the lane: the first
    /// allocation of the next, so a lane that batches many frames grows
    /// once instead of once per doubling.
    lane_hint: usize,
    capacity: usize,
    senders: usize,
    receiver_alive: bool,
    recv_waker: Option<Waker>,
    send_wakers: Vec<Waker>,
    /// Threads parked in [`Receiver::recv_blocking`].
    recv_parked: usize,
    /// Threads parked in [`Sender::send_blocking`].
    send_parked: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// Signalled when an item arrives or all senders are gone.
    recv_ready: Condvar,
    /// Signalled when space frees up or the receiver is gone.
    send_ready: Condvar,
}

impl<T> Shared<T> {
    /// Locks the channel state, recovering from a poisoned mutex. Every
    /// critical section in this module finishes its queue/counter
    /// mutation before touching anything that can panic, so the state a
    /// panicking peer left behind is still coherent — cascading its
    /// panic into every other task sharing the channel would turn one
    /// task failure into a whole-runtime abort.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes the receiver after an item arrived (or the last sender
    /// left), releasing `state` first.
    fn wake_receiver(&self, mut state: MutexGuard<'_, State<T>>) {
        let waker = state.recv_waker.take();
        let parked = state.recv_parked > 0;
        drop(state);
        if let Some(w) = waker {
            w.wake();
        }
        if parked {
            self.recv_ready.notify_one();
        }
    }

    /// Wakes every sender after space freed up (or the receiver left),
    /// releasing `state` first.
    fn wake_senders(&self, mut state: MutexGuard<'_, State<T>>) {
        let wakers = std::mem::take(&mut state.send_wakers);
        let parked = state.send_parked > 0;
        drop(state);
        for w in wakers {
            w.wake();
        }
        if parked {
            self.send_ready.notify_all();
        }
    }
}

/// Creates a bounded channel with room for `capacity` queued items
/// (at least one).
#[must_use]
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            lane: Vec::new(),
            lane_hint: 0,
            capacity: capacity.max(1),
            senders: 1,
            receiver_alive: true,
            recv_waker: None,
            send_wakers: Vec::new(),
            recv_parked: 0,
            send_parked: 0,
        }),
        recv_ready: Condvar::new(),
        send_ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The sending half. Cloneable; the channel closes for the receiver when
/// the last clone drops.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        if state.senders == 0 {
            self.shared.wake_receiver(state);
        }
    }
}

impl<T> Sender<T> {
    /// Sends `value`, waiting asynchronously for space. Fails if the
    /// receiver has been dropped.
    pub fn send(&self, value: T) -> SendFuture<'_, T> {
        SendFuture {
            shared: &self.shared,
            value: Some(value),
        }
    }

    /// Appends to the receiver's byte lane: `write` extends the lane's
    /// buffer in place, under the channel's mutex, whatever the capacity.
    /// Node tasks carry peer-to-peer wire frames this way: a task that
    /// blocked on a peer's full inbox while its own inbox is full would
    /// deadlock any cyclic traffic pattern, so peer traffic trades strict
    /// boundedness for liveness (it stays transitively bounded because
    /// the supervisor's dispatch queue *is* capacity-bounded). `write`
    /// runs under the lock, so it must not block; if it panics, the
    /// bytes it already appended stay in the lane for the receiver to
    /// reject. Fails, without calling `write`, if the receiver has been
    /// dropped.
    pub fn append(&self, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), Closed> {
        let mut state = self.shared.lock();
        if !state.receiver_alive {
            return Err(Closed);
        }
        if state.lane.capacity() == 0 {
            let hint = state.lane_hint;
            state.lane.reserve(hint);
        }
        write(&mut state.lane);
        self.shared.wake_receiver(state);
        Ok(())
    }

    /// Sends `value` from a plain thread, blocking while the queue is
    /// full. Fails if the receiver has been dropped.
    pub fn send_blocking(&self, value: T) -> Result<(), Closed> {
        let mut state = self.shared.lock();
        loop {
            if !state.receiver_alive {
                return Err(Closed);
            }
            if state.queue.len() < state.capacity {
                state.queue.push_back(value);
                self.shared.wake_receiver(state);
                return Ok(());
            }
            state.send_parked += 1;
            state = self
                .shared
                .send_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.send_parked -= 1;
        }
    }
}

/// Future returned by [`Sender::send`].
pub struct SendFuture<'a, T> {
    shared: &'a Shared<T>,
    value: Option<T>,
}

impl<T> std::fmt::Debug for SendFuture<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SendFuture").finish_non_exhaustive()
    }
}

// The future never projects a pin into `value`; it moves it out whole
// under `&mut self` access, so unconditional `Unpin` is sound.
impl<T> Unpin for SendFuture<'_, T> {}

impl<T> Future for SendFuture<'_, T> {
    type Output = Result<(), Closed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut state = this.shared.lock();
        if !state.receiver_alive {
            this.value = None;
            return Poll::Ready(Err(Closed));
        }
        if state.queue.len() < state.capacity {
            // Polling again after completion is a caller bug, but a
            // recoverable one: the value is long gone, so report the
            // send as failed instead of tearing the task down.
            let Some(value) = this.value.take() else {
                return Poll::Ready(Err(Closed));
            };
            state.queue.push_back(value);
            this.shared.wake_receiver(state);
            Poll::Ready(Ok(()))
        } else {
            state.send_wakers.push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// The receiving half (single consumer).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.receiver_alive = false;
        self.shared.wake_senders(state);
    }
}

impl<T> Receiver<T> {
    /// Receives the byte lane's whole buffer and the next queued item,
    /// taken in one critical section and waiting asynchronously while
    /// both are empty; `None` once every sender has dropped and both are
    /// drained. Every byte appended before the item was queued is in the
    /// batch or an earlier one, so a receiver that handles `bytes` before
    /// `item` sees the two lanes in FIFO order.
    pub fn recv_batch(&mut self) -> RecvBatch<'_, T> {
        RecvBatch {
            shared: &self.shared,
        }
    }

    /// Receives from a plain thread, blocking while the queue is empty;
    /// `None` once every sender has dropped and the queue is drained.
    /// Leaves the byte lane alone.
    pub fn recv_blocking(&mut self) -> Option<T> {
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                self.shared.wake_senders(state);
                return Some(v);
            }
            if state.senders == 0 {
                return None;
            }
            state.recv_parked += 1;
            state = self
                .shared
                .recv_ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.recv_parked -= 1;
        }
    }

    /// Pops an item if one is queued, without waiting.
    pub fn try_recv(&mut self) -> Option<T> {
        let mut state = self.shared.lock();
        let v = state.queue.pop_front()?;
        self.shared.wake_senders(state);
        Some(v)
    }
}

/// What one [`Receiver::recv_batch`] hands over: the byte lane's
/// contents, to be handled before `item`.
#[derive(Debug, PartialEq, Eq)]
pub struct Batch<T> {
    /// Every byte appended since the previous batch (possibly none).
    pub bytes: Vec<u8>,
    /// The next queued item, if any.
    pub item: Option<T>,
}

/// Future returned by [`Receiver::recv_batch`].
pub struct RecvBatch<'a, T> {
    shared: &'a Shared<T>,
}

impl<T> std::fmt::Debug for RecvBatch<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecvBatch").finish_non_exhaustive()
    }
}

impl<T> Future for RecvBatch<'_, T> {
    type Output = Option<Batch<T>>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.shared.lock();
        let item = state.queue.pop_front();
        if item.is_none() && state.lane.is_empty() {
            if state.senders == 0 {
                return Poll::Ready(None);
            }
            state.recv_waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        // Taken, not swapped: the receiver frees the buffer once it has
        // decoded it, so an idle inbox holds no lane allocation.
        let bytes = std::mem::take(&mut state.lane);
        if !bytes.is_empty() {
            state.lane_hint = bytes.len();
        }
        if item.is_some() {
            self.shared.wake_senders(state);
        }
        Poll::Ready(Some(Batch { bytes, item }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_send_and_recv_round_trip() {
        let (tx, mut rx) = channel::<u64>(2);
        let h = std::thread::spawn(move || {
            for v in 0..100 {
                tx.send_blocking(v).unwrap();
            }
        });
        let mut got = Vec::new();
        while let Some(v) = rx.recv_blocking() {
            got.push(v);
        }
        h.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u64>(1);
        drop(rx);
        assert_eq!(tx.send_blocking(1), Err(Closed));
    }

    #[test]
    fn try_recv_is_non_blocking() {
        let (tx, mut rx) = channel::<u64>(4);
        assert_eq!(rx.try_recv(), None);
        tx.send_blocking(7).unwrap();
        assert_eq!(rx.try_recv(), Some(7));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn send_future_reports_closed_when_polled_after_completion() {
        let (tx, mut rx) = channel::<u64>(2);
        let mut fut = tx.send(5);
        assert_eq!(poll_once(&mut fut), Poll::Ready(Ok(())));
        // The value was consumed by the first poll; a second poll is a
        // caller bug and reports failure instead of panicking.
        assert_eq!(poll_once(&mut fut), Poll::Ready(Err(Closed)));
        assert_eq!(rx.try_recv(), Some(5));
    }

    /// Polls `fut` once with a waker that does nothing.
    fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
        struct Noop;
        impl std::task::Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        let waker = Waker::from(Arc::new(Noop));
        Pin::new(fut).poll(&mut Context::from_waker(&waker))
    }

    /// Runs `f` on a detached thread, so a thread left parked fails the
    /// test in [`finish`] instead of hanging it.
    fn on_thread<R: Send + 'static>(
        f: impl FnOnce() -> R + Send + 'static,
    ) -> std::sync::mpsc::Receiver<R> {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(f());
        });
        done_rx
    }

    /// The result of an [`on_thread`] closure, waited for with a timeout.
    fn finish<R>(done: &std::sync::mpsc::Receiver<R>) -> R {
        done.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the parked thread was never woken (or it panicked)")
    }

    /// Spins until the channel state satisfies `parked` (a condition
    /// that includes a thread counted in as parked).
    fn await_parked<T>(shared: &Shared<T>, parked: impl Fn(&State<T>) -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !parked(&shared.lock()) {
            assert!(std::time::Instant::now() < deadline, "thread never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn parked_recv_blocking_wakes_on_blocking_and_async_sends() {
        let (tx, mut rx) = channel::<u64>(4);
        let shared = Arc::clone(&tx.shared);
        let done = on_thread(move || {
            let a = rx.recv_blocking();
            let b = rx.recv_blocking();
            (a, b)
        });
        await_parked(&shared, |s| s.recv_parked > 0);
        tx.send_blocking(1).unwrap();
        // An empty queue means the receiver took the first item, so a
        // parked count is its second wait.
        await_parked(&shared, |s| s.queue.is_empty() && s.recv_parked > 0);
        assert_eq!(poll_once(&mut tx.send(2)), Poll::Ready(Ok(())));
        assert_eq!(finish(&done), (Some(1), Some(2)));
    }

    #[test]
    fn lane_bytes_appended_before_an_item_arrive_with_it_or_earlier() {
        let (tx, mut rx) = channel::<u64>(4);
        let append = |bytes: &[u8]| tx.append(|lane| lane.extend_from_slice(bytes)).unwrap();
        append(&[1, 2]);
        tx.send_blocking(10).unwrap();
        append(&[3]);
        // One critical section takes the lane and the item: bytes that
        // followed the item may ride along, none that preceded it is left.
        let batch = |bytes: &[u8], item| {
            Poll::Ready(Some(Batch {
                bytes: bytes.to_vec(),
                item,
            }))
        };
        assert_eq!(poll_once(&mut rx.recv_batch()), batch(&[1, 2, 3], Some(10)));
        append(&[4]);
        tx.send_blocking(11).unwrap();
        tx.send_blocking(12).unwrap();
        assert_eq!(poll_once(&mut rx.recv_batch()), batch(&[4], Some(11)));
        assert_eq!(poll_once(&mut rx.recv_batch()), batch(&[], Some(12)));
        // Bytes alone make a batch; so does an item alone.
        append(&[5]);
        assert_eq!(poll_once(&mut rx.recv_batch()), batch(&[5], None));
        tx.send_blocking(13).unwrap();
        assert_eq!(poll_once(&mut rx.recv_batch()), batch(&[], Some(13)));
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn lane_append_wakes_a_pending_async_recv() {
        struct Count(std::sync::atomic::AtomicUsize);
        impl std::task::Wake for Count {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let (tx, mut rx) = channel::<u64>(1);
        let count = Arc::new(Count(std::sync::atomic::AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&count));
        let mut fut = rx.recv_batch();
        let mut cx = Context::from_waker(&waker);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        tx.append(|lane| lane.push(7)).unwrap();
        assert_eq!(count.0.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(
            Pin::new(&mut fut).poll(&mut cx),
            Poll::Ready(Some(Batch {
                bytes: vec![7],
                item: None,
            }))
        );
    }

    #[test]
    fn bytes_queued_before_the_last_sender_drops_arrive_before_none() {
        let (tx, mut rx) = channel::<u64>(2);
        let tx2 = tx.clone();
        tx.append(|lane| lane.extend_from_slice(&[1, 2])).unwrap();
        tx.send_blocking(3).unwrap();
        tx2.append(|lane| lane.push(4)).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(
            poll_once(&mut rx.recv_batch()),
            Poll::Ready(Some(Batch {
                bytes: vec![1, 2, 4],
                item: Some(3),
            }))
        );
        assert_eq!(poll_once(&mut rx.recv_batch()), Poll::Ready(None));
    }

    #[test]
    fn an_empty_lane_first_reserves_the_last_batch_length() {
        let (tx, mut rx) = channel::<u64>(1);
        tx.append(|lane| lane.extend_from_slice(&[0; 300])).unwrap();
        let Poll::Ready(Some(batch)) = poll_once(&mut rx.recv_batch()) else {
            panic!("the lane held bytes");
        };
        assert_eq!(batch.bytes.len(), 300);
        tx.append(|lane| {
            assert!(lane.is_empty(), "the batch took the buffer");
            assert!(lane.capacity() >= 300, "sized by the last batch");
            lane.push(1);
        })
        .unwrap();
    }

    #[test]
    fn append_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u64>(1);
        drop(rx);
        assert_eq!(tx.append(|_| panic!("wrote to a dead lane")), Err(Closed));
    }

    #[test]
    fn parked_send_blocking_wakes_on_async_recv_and_try_recv() {
        let (tx, mut rx) = channel::<u64>(1);
        let shared = Arc::clone(&tx.shared);
        tx.send_blocking(0).unwrap();
        let done = on_thread(move || {
            tx.send_blocking(1).unwrap();
            tx.send_blocking(2).unwrap();
        });
        await_parked(&shared, |s| s.send_parked > 0);
        let batch = Batch {
            bytes: Vec::new(),
            item: Some(0),
        };
        assert_eq!(poll_once(&mut rx.recv_batch()), Poll::Ready(Some(batch)));
        // The woken sender fills the slot and parks again on its next send.
        await_parked(&shared, |s| {
            s.queue.front() == Some(&1) && s.send_parked > 0
        });
        assert_eq!(rx.try_recv(), Some(1));
        finish(&done);
        assert_eq!(rx.try_recv(), Some(2));
    }

    #[test]
    fn last_sender_drop_wakes_parked_recv_blocking() {
        let (tx, mut rx) = channel::<u64>(1);
        let shared = Arc::clone(&tx.shared);
        let tx2 = tx.clone();
        let done = on_thread(move || rx.recv_blocking());
        await_parked(&shared, |s| s.recv_parked > 0);
        drop(tx);
        drop(tx2);
        assert_eq!(finish(&done), None);
    }

    #[test]
    fn receiver_drop_wakes_parked_send_blocking() {
        let (tx, rx) = channel::<u64>(1);
        let shared = Arc::clone(&tx.shared);
        tx.send_blocking(0).unwrap();
        let done = on_thread(move || tx.send_blocking(1));
        await_parked(&shared, |s| s.send_parked > 0);
        drop(rx);
        assert_eq!(finish(&done), Err(Closed));
    }

    #[test]
    fn capacity_bounds_the_queue() {
        let (tx, mut rx) = channel::<u64>(3);
        for v in 0..3 {
            tx.send_blocking(v).unwrap();
        }
        // A fourth send must wait for the receiver to make room.
        let t = std::thread::spawn(move || tx.send_blocking(3));
        assert_eq!(rx.recv_blocking(), Some(0));
        t.join().unwrap().unwrap();
        assert_eq!(rx.recv_blocking(), Some(1));
        assert_eq!(rx.recv_blocking(), Some(2));
        assert_eq!(rx.recv_blocking(), Some(3));
    }
}
