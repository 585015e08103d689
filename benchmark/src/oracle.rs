//! Ground truth for every locate answer: where each tracked agent really
//! is, written by the agent itself on arrival and read by whoever receives
//! an answer about it.

use std::sync::atomic::{AtomicU64, Ordering};

use agentrack_platform::NodeId;

/// How an answer compares with the truth at the moment it is received.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The node the agent occupies (or is in transit from).
    Current,
    /// The node it left on its latest move, and it arrived only just now:
    /// the answer raced one `Update`. Legitimate — the mechanism promises
    /// the last *reported* location.
    OneBehind,
    /// Neither: a lost or overdue update, a record handed to the wrong
    /// tracker, or an answer two or more moves old.
    Wrong,
}

const NO_NODE: u64 = 0xFFFF;

/// One packed cell per tracked agent: current node (bits 0–15), previous
/// node (16–31, `NO_NODE` before the first move), arrival time in
/// milliseconds since the run began (32–63).
///
/// Relaxed atomics: a cell publishes nothing but itself, and a reader that
/// sees the value from just before an arrival judges against the truth of
/// that instant, which is as valid.
#[derive(Debug)]
pub struct Oracle {
    cells: Vec<AtomicU64>,
}

fn pack(cur: u64, prev: u64, at_ms: u64) -> u64 {
    cur | prev << 16 | (at_ms & 0xFFFF_FFFF) << 32
}

impl Oracle {
    /// A table for `agents` agents, all unplaced.
    pub fn new(agents: usize) -> Self {
        Oracle {
            cells: (0..agents)
                .map(|_| AtomicU64::new(pack(NO_NODE, NO_NODE, 0)))
                .collect(),
        }
    }

    /// Records the birth node of agent `idx`.
    pub fn place(&self, idx: usize, node: NodeId) {
        self.cells[idx].store(pack(u64::from(node.raw()), NO_NODE, 0), Ordering::Relaxed);
    }

    /// Records that agent `idx` arrived at `node`, `at_ms` into the run.
    /// Only the agent itself calls this, so the read-modify-write needs no
    /// compare-and-swap.
    pub fn arrive(&self, idx: usize, node: NodeId, at_ms: u64) {
        let cur = self.cells[idx].load(Ordering::Relaxed) & 0xFFFF;
        self.cells[idx].store(pack(u64::from(node.raw()), cur, at_ms), Ordering::Relaxed);
    }

    /// Judges an answer about agent `idx` received `now_ms` into the run.
    /// The previous node is excused only within `excuse_ms` of the
    /// arrival: with two nodes a *lost* update would otherwise hide behind
    /// "one behind" until the agent moves back.
    pub fn judge(&self, idx: usize, answer: NodeId, now_ms: u64, excuse_ms: u64) -> Verdict {
        let cell = self.cells[idx].load(Ordering::Relaxed);
        let answer = u64::from(answer.raw());
        if answer == cell & 0xFFFF {
            Verdict::Current
        } else if answer == cell >> 16 & 0xFFFF && now_ms <= (cell >> 32) + excuse_ms {
            Verdict::OneBehind
        } else {
            Verdict::Wrong
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn stationary_agent_accepts_only_its_node() {
        let o = Oracle::new(2);
        o.place(1, n(3));
        assert_eq!(o.judge(1, n(3), 5, 100), Verdict::Current);
        assert_eq!(
            o.judge(1, n(0), 5, 100),
            Verdict::Wrong,
            "deliberately wrong answer"
        );
        // An unplaced agent has no right answer at all.
        assert_eq!(o.judge(0, n(0), 5, 100), Verdict::Wrong);
    }

    #[test]
    fn one_move_stale_is_legitimate_two_moves_stale_is_not() {
        let o = Oracle::new(1);
        o.place(0, n(0));
        o.arrive(0, n(1), 10);
        assert_eq!(o.judge(0, n(1), 12, 100), Verdict::Current);
        assert_eq!(o.judge(0, n(0), 12, 100), Verdict::OneBehind);
        o.arrive(0, n(2), 25);
        assert_eq!(o.judge(0, n(2), 30, 100), Verdict::Current);
        assert_eq!(o.judge(0, n(1), 30, 100), Verdict::OneBehind);
        assert_eq!(o.judge(0, n(0), 30, 100), Verdict::Wrong, "two moves stale");
        // The excuse runs out: an update still missing 100 ms after the
        // arrival is a lost update, not a race.
        assert_eq!(o.judge(0, n(1), 126, 100), Verdict::Wrong, "overdue update");
    }
}
