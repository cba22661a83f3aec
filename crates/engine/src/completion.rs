//! In-flight transfers retired in completion order from per-lane FIFOs.
//!
//! Both controllers complete a transfer a fixed delay after they issue it,
//! and the delay depends only on the transfer's direction: an HBM4 read
//! completes `tCL + burst` after its RD, a write `tCWL + burst` after its
//! WR; a RoMe `RD_row` or `WR_row` completes its own constant offset after
//! issue. Issue cycles never decrease, so each direction's transfers
//! complete in issue order. [`CompletionQueue`] therefore keeps one FIFO
//! per direction (a *lane*) and merges the two heads: every pop returns the
//! in-flight transfer with the least `(completion cycle, issue sequence)`,
//! exactly the order a min-heap keyed on that pair pops in, at the cost of
//! one comparison instead of a sift through the heap.

use std::collections::VecDeque;

use rome_hbm::units::Cycle;

use crate::request::RequestKind;

/// One in-flight transfer: its completion cycle, its issue sequence number
/// (the tie-breaker between lanes) and the caller's payload.
#[derive(Debug, Clone)]
struct Pending<T> {
    at: Cycle,
    seq: u64,
    item: T,
}

/// In-flight transfers in two completion-ordered lanes, one per
/// [`RequestKind`] (see the module docs for why each lane is a FIFO).
#[derive(Debug, Clone)]
pub struct CompletionQueue<T> {
    /// `[0]` reads, `[1]` writes; each sorted by `(at, seq)`.
    lanes: [VecDeque<Pending<T>>; 2],
    /// Issue sequence counter: ties on the completion cycle pop in push
    /// order, across lanes too.
    seq: u64,
}

impl<T> Default for CompletionQueue<T> {
    fn default() -> Self {
        CompletionQueue {
            lanes: [VecDeque::new(), VecDeque::new()],
            seq: 0,
        }
    }
}

fn lane_index(lane: RequestKind) -> usize {
    match lane {
        RequestKind::Read => 0,
        RequestKind::Write => 1,
    }
}

impl<T> CompletionQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        CompletionQueue::default()
    }

    /// Record a transfer on `lane` that completes at cycle `at`. A lane's
    /// completion cycles must not decrease from one push to the next, which
    /// holds whenever the lane's issue-to-completion delay is a constant.
    pub fn push(&mut self, lane: RequestKind, at: Cycle, item: T) {
        let lane = &mut self.lanes[lane_index(lane)];
        debug_assert!(
            lane.back().is_none_or(|last| last.at <= at),
            "completion cycles must not decrease within a lane"
        );
        lane.push_back(Pending {
            at,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// The lane whose head completes first (ties broken by issue order).
    fn head_lane(&self) -> Option<usize> {
        match (self.lanes[0].front(), self.lanes[1].front()) {
            (Some(r), Some(w)) => Some(((w.at, w.seq) < (r.at, r.seq)) as usize),
            (Some(_), None) => Some(0),
            (None, Some(_)) => Some(1),
            (None, None) => None,
        }
    }

    /// The earliest completion cycle in flight, if any.
    pub fn next_at(&self) -> Option<Cycle> {
        self.lanes
            .iter()
            .filter_map(|l| l.front().map(|p| p.at))
            .min()
    }

    /// Retire the earliest in-flight transfer if it completes at or before
    /// `now`, returning its completion cycle and payload.
    pub fn pop_due(&mut self, now: Cycle) -> Option<(Cycle, T)> {
        let lane = &mut self.lanes[self.head_lane()?];
        if lane.front().expect("head lane is non-empty").at > now {
            return None;
        }
        lane.pop_front().map(|p| (p.at, p.item))
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn ties_across_lanes_pop_in_push_order() {
        let mut q = CompletionQueue::new();
        q.push(RequestKind::Write, 10, "w0");
        q.push(RequestKind::Read, 10, "r0");
        q.push(RequestKind::Read, 12, "r1");
        assert_eq!(q.next_at(), Some(10));
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.pop_due(11), Some((10, "w0")));
        assert_eq!(q.pop_due(11), Some((10, "r0")));
        assert_eq!(q.pop_due(11), None);
        assert!(!q.is_empty());
        assert_eq!(q.pop_due(12), Some((12, "r1")));
        assert!(q.is_empty());
        assert_eq!(q.next_at(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random per-lane monotone pushes (small steps, so equal cycles
        /// within and across lanes are common) interleaved with random
        /// `pop_due` calls at a rising `now`: every pop and every
        /// `next_at` must match a binary min-heap on `(at, seq)`.
        #[test]
        fn pops_match_a_min_heap_on_completion_then_issue_order(
            ops in prop::collection::vec((0u64..3, 0u64..3, 0u64..4), 1..200),
        ) {
            let mut q = CompletionQueue::new();
            let mut heap = BinaryHeap::new();
            let mut last = [0 as Cycle; 2];
            let mut seq = 0u64;
            let mut now: Cycle = 0;
            for &(op, step, advance) in &ops {
                if op < 2 {
                    let lane = op as usize;
                    let kind = if lane == 0 { RequestKind::Read } else { RequestKind::Write };
                    last[lane] = last[lane].max(now) + step;
                    q.push(kind, last[lane], seq);
                    heap.push(Reverse((last[lane], seq)));
                    seq += 1;
                } else {
                    now += advance;
                    loop {
                        let expect = match heap.peek() {
                            Some(&Reverse((at, s))) if at <= now => {
                                heap.pop();
                                Some((at, s))
                            }
                            _ => None,
                        };
                        prop_assert_eq!(q.pop_due(now), expect);
                        if expect.is_none() {
                            break;
                        }
                    }
                }
                prop_assert_eq!(q.next_at(), heap.peek().map(|r| r.0 .0));
                prop_assert_eq!(q.is_empty(), heap.is_empty());
            }
            while let Some(Reverse(expect)) = heap.pop() {
                prop_assert_eq!(q.pop_due(Cycle::MAX), Some(expect));
            }
            prop_assert!(q.is_empty());
        }
    }
}
