//! The bounded event queue between query handles and the writer thread.
//!
//! Admission control is the point: the queue has a hard capacity, and a
//! full queue **rejects** new events with an explicit error instead of
//! buffering without bound — under overload the caller learns immediately
//! and can shed or retry, and the service's memory stays flat. Only event
//! producers and the single writer touch this queue; the read hot path
//! (route/status queries) never does.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Why an event was not admitted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — back off and retry.
    Overloaded,
    /// The service is shutting down; no more events will be accepted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Overloaded => f.write_str("event queue at capacity"),
            PushError::Closed => f.write_str("service shutting down"),
        }
    }
}

impl std::error::Error for PushError {}

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

/// A bounded multi-producer single-consumer queue with non-blocking,
/// explicitly-rejecting admission.
pub struct BoundedQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for BoundedQueue<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` events.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity queue admits nothing");
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    closed: false,
                }),
                ready: Condvar::new(),
                capacity,
            }),
        }
    }

    /// Admits one event, or rejects it immediately when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut state = self.inner.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.queue.len() >= self.inner.capacity {
            return Err(PushError::Overloaded);
        }
        state.queue.push_back(item);
        drop(state);
        self.inner.ready.notify_one();
        Ok(())
    }

    /// Admits the longest prefix of `items` that fits and rejects the
    /// rest (all of them when closed); returns how many were admitted.
    /// One lock acquisition and one wake-up for the whole prefix, so the
    /// consumer never sees part of it: one request's events reach the
    /// writer together.
    pub(crate) fn push_prefix(&self, items: impl IntoIterator<Item = T>) -> usize {
        let mut state = self.inner.state.lock().expect("queue lock");
        if state.closed {
            return 0;
        }
        let before = state.queue.len();
        let room = self.inner.capacity.saturating_sub(before);
        state.queue.extend(items.into_iter().take(room));
        let admitted = state.queue.len() - before;
        drop(state);
        if admitted > 0 {
            self.inner.ready.notify_one();
        }
        admitted
    }

    /// Blocks until an event is available or the queue is closed *and*
    /// drained; `None` means no event will ever arrive again.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.inner.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.queue.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.inner.ready.wait(state).expect("queue lock");
        }
    }

    /// Like [`BoundedQueue::recv`] with a timeout; `Ok(None)` means closed
    /// and drained, `Err(())` means the timeout elapsed with no event.
    #[allow(clippy::result_unit_err)]
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<T>, ()> {
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.inner.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.queue.pop_front() {
                return Ok(Some(item));
            }
            if state.closed {
                return Ok(None);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(());
            }
            let (s, _timed_out) = self
                .inner
                .ready
                .wait_timeout(state, deadline - now)
                .expect("queue lock");
            state = s;
        }
    }

    /// Moves up to `max` immediately-available events into `out` without
    /// blocking; returns how many were moved. This is the writer's batch
    /// coalescing: one `recv` for the first event, one `drain` for the
    /// rest of the batch.
    pub fn drain_up_to(&self, max: usize, out: &mut Vec<T>) -> usize {
        let mut state = self.inner.state.lock().expect("queue lock");
        let n = max.min(state.queue.len());
        out.extend(state.queue.drain(..n));
        n
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.inner.state.lock().expect("queue lock").queue.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission-control capacity.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// and `recv` returns `None` once the backlog is drained.
    pub fn close(&self) {
        let mut state = self.inner.state.lock().expect("queue lock");
        state.closed = true;
        drop(state);
        self.inner.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_when_full_instead_of_buffering() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Overloaded));
        assert_eq!(q.len(), 2);
        // Draining frees capacity.
        assert_eq!(q.recv(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn close_rejects_pushes_but_drains_backlog() {
        let q = BoundedQueue::new(8);
        q.try_push("a").unwrap();
        q.close();
        assert_eq!(q.try_push("b"), Err(PushError::Closed));
        assert_eq!(q.recv(), Some("a"));
        assert_eq!(q.recv(), None);
    }

    #[test]
    fn drain_coalesces_a_batch() {
        let q = BoundedQueue::new(16);
        for i in 0..10 {
            q.try_push(i).unwrap();
        }
        let first = q.recv().unwrap();
        assert_eq!(first, 0);
        let mut batch = vec![first];
        let drained = q.drain_up_to(5, &mut batch);
        assert_eq!(drained, 5);
        assert_eq!(batch, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn push_prefix_admits_what_fits_in_one_step() {
        let q = BoundedQueue::new(4);
        q.try_push(0).unwrap();
        assert_eq!(q.push_prefix(1..=5), 3);
        let first = q.recv().unwrap();
        let mut batch = vec![first];
        q.drain_up_to(8, &mut batch);
        assert_eq!(batch, vec![0, 1, 2, 3]);
        assert_eq!(q.push_prefix(Vec::<u32>::new()), 0);
        q.close();
        assert_eq!(q.push_prefix([7]), 0);
        assert_eq!(q.recv(), None);
    }

    #[test]
    fn recv_timeout_distinguishes_empty_from_closed() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        assert_eq!(q.recv_timeout(Duration::from_millis(10)), Err(()));
        q.close();
        assert_eq!(q.recv_timeout(Duration::from_millis(10)), Ok(None));
    }

    #[test]
    fn recv_blocks_until_producer_pushes() {
        let q = BoundedQueue::new(4);
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.recv());
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(99).unwrap();
        assert_eq!(t.join().unwrap(), Some(99));
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_is_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    /// Concurrent producers vs. one consumer: admission accounting must be
    /// exact. Every push attempt either lands (and is received exactly
    /// once) or is rejected `Overloaded`; nothing is lost or duplicated,
    /// and the queue never exceeds capacity.
    #[test]
    fn concurrent_producers_exact_admission_accounting() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 2_000;
        const CAPACITY: usize = 32;

        let q: BoundedQueue<(usize, usize)> = BoundedQueue::new(CAPACITY);
        let admitted = Arc::new(AtomicUsize::new(0));
        let overloaded = Arc::new(AtomicUsize::new(0));

        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut got: Vec<(usize, usize)> = Vec::new();
                while let Some(item) = q.recv() {
                    got.push(item);
                }
                got
            })
        };

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                let admitted = admitted.clone();
                let overloaded = overloaded.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        match q.try_push((p, i)) {
                            Ok(()) => {
                                admitted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(PushError::Overloaded) => {
                                overloaded.fetch_add(1, Ordering::Relaxed);
                                // Back off so the consumer makes progress
                                // and both outcomes are exercised.
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed) => panic!("queue closed early"),
                        }
                        assert!(q.len() <= CAPACITY, "capacity breached");
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        q.close();
        let got = consumer.join().unwrap();

        let admitted = admitted.load(Ordering::Relaxed);
        let overloaded = overloaded.load(Ordering::Relaxed);
        // Exact accounting: every attempt has exactly one outcome, and
        // every admitted item reaches the consumer exactly once.
        assert_eq!(admitted + overloaded, PRODUCERS * PER_PRODUCER);
        assert_eq!(got.len(), admitted, "lost or duplicated items");
        let unique: std::collections::HashSet<_> = got.iter().copied().collect();
        assert_eq!(unique.len(), got.len(), "duplicated items");
        // Under a 32-slot queue and 16k attempts, both outcomes must occur.
        assert!(admitted > 0, "no item admitted");
        assert!(overloaded > 0, "overload path never exercised");
    }

    /// Producers racing `close`: pushes after close are `Closed`, pushes
    /// before close are all drained, and the consumer sees a clean end.
    #[test]
    fn concurrent_producers_racing_close_lose_nothing_admitted() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let q: BoundedQueue<usize> = BoundedQueue::new(64);
        let admitted = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                let admitted = admitted.clone();
                std::thread::spawn(move || loop {
                    match q.try_push(p) {
                        Ok(()) => {
                            admitted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(PushError::Overloaded) => std::thread::yield_now(),
                        Err(PushError::Closed) => return,
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for producer in producers {
            producer.join().unwrap();
        }
        // Everything admitted before close is still drainable.
        let mut drained = 0;
        while q.recv().is_some() {
            drained += 1;
        }
        assert_eq!(drained, admitted.load(Ordering::Relaxed));
    }
}
