//! Streaming traffic sources: requests generated as simulated time advances.
//!
//! Every experiment used to materialize its whole request stream up front as
//! a `Vec<MemoryRequest>` with all arrivals at cycle 0, which can only model
//! open-loop bursts. A [`TrafficSource`] instead *releases* requests lazily:
//! the driver asks [`TrafficSource::next_arrival_at`] when the next request
//! can become available, pulls everything due with
//! [`TrafficSource::pull_into`], and feeds completions back through
//! [`TrafficSource::on_completion`] — which is what lets a source react to
//! the memory system (closed-loop load generation) instead of merely playing
//! a schedule at it.
//!
//! The contract mirrors the [`crate::MemoryController::next_event_at`]
//! event-driven contract on the controller side:
//!
//! * `next_arrival_at` must **lower-bound** the next cycle at which a
//!   not-yet-pulled request can become available *without further
//!   completions*. Returning a too-early cycle merely costs a spurious
//!   wake-up; returning a too-late cycle would make the driver skip an
//!   arrival and perturb the schedule.
//! * A source whose next release is gated on a completion (a closed-loop
//!   host with a full window) returns `None`: the completion itself is a
//!   controller event, so the driver is guaranteed to wake for it and call
//!   `on_completion`, after which `next_arrival_at` may report the unblocked
//!   arrival.
//! * `pull_into(now, …)` appends every request whose arrival is at or before
//!   `now`, in arrival order; requests are handed over exactly once.
//! * [`TrafficSource::is_exhausted`] is `true` only when no request can ever
//!   become available again (not even via future completions).
//!
//! [`ReplaySource`] adapts any materialized `Vec<MemoryRequest>` to this
//! trait, which makes every vector experiment a special case of the
//! streaming path: the single-controller vector drivers replay their input
//! through it, and the regression suite pins the replayed runs against a
//! cycle-stepped reference.

use std::collections::VecDeque;

use rome_hbm::units::Cycle;

use crate::request::MemoryRequest;
use crate::system::HostCompletion;

/// A lazy stream of memory requests, generated as simulated time advances
/// and (optionally) in reaction to completions. See the module docs for the
/// exactness contract.
pub trait TrafficSource {
    /// The earliest cycle at which a not-yet-pulled request can become
    /// available without further completions, or `None` when no arrival is
    /// currently scheduled (the stream is exhausted, or the next release
    /// waits on a completion). Must lower-bound the true next arrival.
    fn next_arrival_at(&self) -> Option<Cycle>;

    /// Append every request whose arrival is at or before `now` to `out`, in
    /// arrival order. Each request is handed over exactly once.
    fn pull_into(&mut self, now: Cycle, out: &mut Vec<MemoryRequest>);

    /// Observe the completion of a previously pulled request. Open-loop
    /// sources ignore this; closed-loop sources use it to release the next
    /// batch. The default does nothing.
    fn on_completion(&mut self, completion: &HostCompletion) {
        let _ = completion;
    }

    /// `true` when no request will ever become available again — neither by
    /// time advancing nor by further completions.
    fn is_exhausted(&self) -> bool;
}

impl<S: TrafficSource + ?Sized> TrafficSource for Box<S> {
    fn next_arrival_at(&self) -> Option<Cycle> {
        (**self).next_arrival_at()
    }

    fn pull_into(&mut self, now: Cycle, out: &mut Vec<MemoryRequest>) {
        (**self).pull_into(now, out)
    }

    fn on_completion(&mut self, completion: &HostCompletion) {
        (**self).on_completion(completion)
    }

    fn is_exhausted(&self) -> bool {
        (**self).is_exhausted()
    }
}

/// Streams a materialized request vector through the [`TrafficSource`]
/// interface: each request becomes available at its recorded `arrival` cycle,
/// clamped so availability is non-decreasing in submission order (a request
/// is never released before its predecessor).
///
/// This is how the vector drivers (`simulate::run_with_budget`,
/// `simulate::run_to_completion`) reach the one single-controller loop, so
/// it copies nothing: the caller's `Vec` becomes the replay's `VecDeque` in
/// O(1), release times come from a running watermark rather than a stored
/// cycle per request, and once everything left is due a pull into an empty
/// `out` hands over the whole buffer.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    /// Requests not yet pulled, in submission order.
    queue: VecDeque<MemoryRequest>,
    /// Release cycle of the last pulled request: the front request is
    /// available at `max(arrival, watermark)`.
    watermark: Cycle,
    /// Release cycle of the final request, the largest arrival: from this
    /// cycle on everything left is due.
    last_release: Cycle,
}

impl ReplaySource {
    /// Build a replay over `requests`, preserving their order. A request
    /// becomes available at its `arrival` cycle, or at its predecessor's
    /// availability if that is later (order is never violated).
    pub fn new(requests: Vec<MemoryRequest>) -> Self {
        let last_release = requests.iter().map(|r| r.arrival).max().unwrap_or(0);
        ReplaySource {
            queue: VecDeque::from(requests),
            watermark: 0,
            last_release,
        }
    }

    /// Requests not yet pulled.
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }
}

impl From<Vec<MemoryRequest>> for ReplaySource {
    fn from(requests: Vec<MemoryRequest>) -> Self {
        ReplaySource::new(requests)
    }
}

impl TrafficSource for ReplaySource {
    fn next_arrival_at(&self) -> Option<Cycle> {
        self.queue.front().map(|r| r.arrival.max(self.watermark))
    }

    fn pull_into(&mut self, now: Cycle, out: &mut Vec<MemoryRequest>) {
        if now >= self.last_release && out.is_empty() && !self.queue.is_empty() {
            // Everything left is due: hand the buffer over instead of
            // copying it request by request.
            self.watermark = self.last_release;
            *out = Vec::from(std::mem::take(&mut self.queue));
            return;
        }
        while let Some(front) = self.queue.front() {
            let at = front.arrival.max(self.watermark);
            if at > now {
                break;
            }
            self.watermark = at;
            out.extend(self.queue.pop_front());
        }
    }

    fn is_exhausted(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_releases_in_order_at_recorded_arrivals() {
        let reqs = vec![
            MemoryRequest::read(1, 0, 32, 0),
            MemoryRequest::read(2, 32, 32, 10),
            MemoryRequest::read(3, 64, 32, 5), // out-of-order arrival: clamped to 10
        ];
        let mut src = ReplaySource::from(reqs);
        assert_eq!(src.next_arrival_at(), Some(0));
        let mut out = Vec::new();
        src.pull_into(0, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(src.next_arrival_at(), Some(10));
        src.pull_into(9, &mut out);
        assert_eq!(out.len(), 1, "nothing due before cycle 10");
        src.pull_into(10, &mut out);
        assert_eq!(out.len(), 3, "clamped request released with predecessor");
        assert!(src.is_exhausted());
        assert_eq!(src.next_arrival_at(), None);
    }

    #[test]
    fn a_due_replay_hands_its_whole_buffer_to_an_empty_out() {
        let reqs: Vec<MemoryRequest> = (0..64)
            .map(|i| MemoryRequest::read(i + 1, i * 32, 32, i % 3))
            .collect();
        let (ptr, ids) = (reqs.as_ptr(), reqs.iter().map(|r| r.id).collect::<Vec<_>>());
        let mut src = ReplaySource::from(reqs);
        let mut out = Vec::new();
        src.pull_into(2, &mut out);
        assert_eq!(out.as_ptr(), ptr, "the caller's buffer, not a copy");
        assert_eq!(out.iter().map(|r| r.id).collect::<Vec<_>>(), ids);
        assert!(src.is_exhausted());
        assert_eq!(src.next_arrival_at(), None);
    }

    #[test]
    fn handover_keeps_order_and_clamping_after_partial_pulls() {
        let reqs = vec![
            MemoryRequest::read(1, 0, 32, 0),
            MemoryRequest::read(2, 32, 32, 20),
            MemoryRequest::read(3, 64, 32, 5), // clamped to 20
            MemoryRequest::read(4, 96, 32, 30),
        ];
        let mut src = ReplaySource::from(reqs);
        let mut out = Vec::new();
        src.pull_into(10, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(src.next_arrival_at(), Some(20));
        // A non-empty `out` is appended to, never replaced.
        src.pull_into(20, &mut out);
        assert_eq!(out.iter().map(|r| r.id.0).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(src.next_arrival_at(), Some(30));
        // Everything left is due and `out` is empty: the rest comes whole.
        out.clear();
        src.pull_into(25, &mut out);
        assert!(out.is_empty(), "request 4 is not due before cycle 30");
        src.pull_into(30, &mut out);
        assert_eq!(out.iter().map(|r| r.id.0).collect::<Vec<_>>(), [4]);
        assert!(src.is_exhausted());
        // An exhausted replay leaves `out` (and its allocation) alone.
        let capacity = out.capacity();
        out.clear();
        src.pull_into(40, &mut out);
        assert_eq!(out.capacity(), capacity);
    }

    #[test]
    fn empty_replay_is_exhausted_immediately() {
        let src = ReplaySource::new(Vec::new());
        assert!(src.is_exhausted());
        assert_eq!(src.next_arrival_at(), None);
        assert_eq!(src.remaining(), 0);
    }
}
