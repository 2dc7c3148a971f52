//! The bounded admission queue: FIFO within priority, strict capacity.
//!
//! Backpressure is the queue's whole job — an unbounded queue under a
//! sustained overload turns every latency percentile into the queueing
//! delay of the backlog. Arrivals beyond `capacity` are refused at the
//! front door with [`Rejection::QueueFull`](super::Rejection::QueueFull) so the client learns
//! immediately instead of timing out later.
//!
//! Ordering is a determinism contract: requests leave in ascending
//! `(priority, arrival sequence)` order, with the arrival sequence
//! assigned by the engine in submission order. No hash-ordered container
//! is involved (`BTreeMap` keyed by priority), so two identical arrival
//! traces drain identically — the double-run test relies on this.

use std::collections::{BTreeMap, VecDeque};

use super::request::{Priority, Request};

/// A queued request plus its arrival bookkeeping.
#[derive(Debug, Clone)]
pub struct Queued<T> {
    /// Engine-wide arrival sequence number (FIFO key within priority).
    pub seq: u64,
    /// Virtual arrival time.
    pub arrival_ns: u64,
    pub req: Request<T>,
}

/// Bounded priority queue with FIFO order inside each priority class.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    capacity: usize,
    len: usize,
    classes: BTreeMap<Priority, VecDeque<Queued<T>>>,
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue admitting at most `capacity` waiting requests.
    pub fn new(capacity: usize) -> AdmissionQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        AdmissionQueue {
            capacity,
            len: 0,
            classes: BTreeMap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues a request, or returns it when the queue is full.
    pub fn push(&mut self, item: Queued<T>) -> Result<(), Queued<T>> {
        if self.len >= self.capacity {
            return Err(item);
        }
        self.classes
            .entry(item.req.priority)
            .or_default()
            .push_back(item);
        self.len += 1;
        Ok(())
    }

    /// Removes and returns the next request in `(priority, seq)` order.
    pub fn pop(&mut self) -> Option<Queued<T>> {
        let (&prio, _) = self.classes.iter().find(|(_, q)| !q.is_empty())?;
        let q = self.classes.get_mut(&prio)?;
        let item = q.pop_front();
        if item.is_some() {
            self.len -= 1;
        }
        if q.is_empty() {
            self.classes.remove(&prio);
        }
        item
    }

    /// Removes every queued request whose deadline is at or before `now`,
    /// in `(priority, seq)` order. Runs every scheduler tick, so the
    /// nothing-expired case (by far the common one) allocates nothing.
    pub fn expire(&mut self, now_ns: u64) -> Vec<Queued<T>> {
        let any_expired = self
            .classes
            .values()
            .flat_map(|q| q.iter())
            .any(|item| item.req.deadline_ns <= now_ns);
        if !any_expired {
            // hot-ok: Vec::new never allocates and nothing is pushed on this path
            return Vec::new();
        }
        // hot-ok: expiry slow path — only reached when a deadline actually lapsed
        let mut out = Vec::new();
        for q in self.classes.values_mut() {
            // hot-ok: expiry slow path — only reached when a deadline actually lapsed
            let mut kept = VecDeque::with_capacity(q.len());
            for item in q.drain(..) {
                if item.req.deadline_ns <= now_ns {
                    out.push(item);
                } else {
                    kept.push_back(item);
                }
            }
            *q = kept;
        }
        self.classes.retain(|_, q| !q.is_empty());
        self.len -= out.len();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(seq: u64, priority: u8, deadline: u64) -> Queued<()> {
        Queued {
            seq,
            arrival_ns: 0,
            req: Request::new(seq, (), vec![1])
                .with_priority(priority)
                .with_deadline(deadline),
        }
    }

    #[test]
    fn fifo_within_priority_and_priority_order_across() {
        let mut aq = AdmissionQueue::new(8);
        for (seq, prio) in [(0u64, 1u8), (1, 0), (2, 1), (3, 0), (4, 2)] {
            aq.push(q(seq, prio, u64::MAX)).unwrap();
        }
        let order: Vec<u64> = std::iter::from_fn(|| aq.pop()).map(|i| i.seq).collect();
        assert_eq!(order, vec![1, 3, 0, 2, 4]);
        assert!(aq.is_empty());
    }

    #[test]
    fn push_beyond_capacity_returns_the_request() {
        let mut aq = AdmissionQueue::new(2);
        aq.push(q(0, 0, u64::MAX)).unwrap();
        aq.push(q(1, 0, u64::MAX)).unwrap();
        let bounced = aq.push(q(2, 0, u64::MAX)).unwrap_err();
        assert_eq!(bounced.seq, 2);
        assert_eq!(aq.len(), 2);
        // Popping frees a slot again.
        aq.pop().unwrap();
        assert!(aq.push(q(3, 0, u64::MAX)).is_ok());
    }

    #[test]
    fn expire_removes_only_overdue_requests() {
        let mut aq = AdmissionQueue::new(8);
        aq.push(q(0, 0, 100)).unwrap();
        aq.push(q(1, 0, 200)).unwrap();
        aq.push(q(2, 1, 50)).unwrap();
        let expired: Vec<u64> = aq.expire(100).into_iter().map(|i| i.seq).collect();
        assert_eq!(expired, vec![0, 2]);
        assert_eq!(aq.len(), 1);
        assert_eq!(aq.pop().unwrap().seq, 1);
    }
}
