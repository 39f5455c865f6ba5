//! Work-stealing claim frontier: splittable ranges of work-item indices.
//!
//! The supervised pool's default claim discipline is a single atomic
//! cursor — perfect load balance for uniform items, but checker window
//! chunks are *not* uniform (a chunk near a violation explores far more
//! states than a memo-warmed one), and a static cursor cannot give one
//! worker a long contiguous run of a pair's chunks (which is what makes
//! the checker's simulator-carry optimization fire). The [`Frontier`]
//! replaces the cursor with a deque of contiguous index ranges:
//!
//! * Each worker holds one contiguous **lease** `[next, end)` and pops
//!   its front on every claim — consecutive claims stay consecutive.
//! * A worker with an empty lease takes the unclaimed **free range**
//!   with the smallest start, keeping initial assignment deterministic.
//! * With no free ranges left, it **steals** from the victim with the
//!   most remaining work, splitting the victim's lease: the victim keeps
//!   the front half (rounded down), the thief takes the tail. A one-item
//!   lease moves wholesale.
//!
//! Which worker claims which index is scheduling-dependent — and
//! irrelevant: results are content-addressed per item and merged in item
//! order after the pool drains, so the report digest is invariant across
//! worker counts and steal schedules (DESIGN.md §17).

use std::sync::Mutex;

struct FrontierState {
    /// Unclaimed ranges `[start, end)`, in no particular order.
    free: Vec<(usize, usize)>,
    /// Per-worker lease `[next, end)`; empty when `next == end`.
    leases: Vec<(usize, usize)>,
    steals: u64,
}

/// A shared claim frontier for the supervised pool: the campaign driver
/// claims through one when a [`WorkUnit`](crate::WorkUnit) supplies
/// claim ranges.
pub(crate) struct Frontier {
    state: Mutex<FrontierState>,
}

impl Frontier {
    /// A frontier over `ranges` (contiguous `[start, end)` index
    /// intervals; empty ranges are ignored) for `workers` workers.
    pub(crate) fn new(ranges: &[(usize, usize)], workers: usize) -> Frontier {
        Frontier {
            state: Mutex::new(FrontierState {
                free: ranges.iter().copied().filter(|(s, e)| s < e).collect(),
                leases: vec![(0, 0); workers.max(1)],
                steals: 0,
            }),
        }
    }

    /// Claims the next item index for `worker`: lease front, else the
    /// earliest free range, else a steal. `None` once the frontier is
    /// drained (every index handed out).
    pub(crate) fn claim(&self, worker: usize) -> Option<usize> {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let w = worker.min(s.leases.len() - 1);
        // 1. Own lease.
        if s.leases[w].0 < s.leases[w].1 {
            let i = s.leases[w].0;
            s.leases[w].0 += 1;
            return Some(i);
        }
        // 2. Earliest free range.
        if let Some(at) = (0..s.free.len()).min_by_key(|&i| s.free[i].0) {
            s.leases[w] = s.free.swap_remove(at);
            let i = s.leases[w].0;
            s.leases[w].0 += 1;
            return Some(i);
        }
        // 3. Steal from the victim with the most remaining work.
        let victim = (0..s.leases.len())
            .filter(|&v| v != w && s.leases[v].1 > s.leases[v].0)
            .max_by_key(|&v| s.leases[v].1 - s.leases[v].0)?;
        let (next, end) = s.leases[victim];
        // Victim keeps the front half, so the thief always gets at least
        // one item and a one-item lease moves wholesale.
        let keep = (end - next) / 2;
        s.leases[victim].1 = next + keep;
        s.leases[w] = (next + keep, end);
        s.steals += 1;
        let i = s.leases[w].0;
        s.leases[w].0 += 1;
        Some(i)
    }

    /// Steals performed (lease transfers, split or wholesale).
    pub(crate) fn steals(&self) -> u64 {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).steals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn drain_all(frontier: &Frontier, workers: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut live: Vec<usize> = (0..workers).collect();
        // Round-robin drain: deterministic, exercises steals once the
        // free list empties.
        while !live.is_empty() {
            live.retain(|&w| match frontier.claim(w) {
                Some(i) => {
                    out.push(i);
                    true
                }
                None => false,
            });
        }
        out
    }

    #[test]
    fn every_index_is_claimed_exactly_once() {
        for workers in [1, 2, 3, 8] {
            let frontier = Frontier::new(&[(0, 7), (7, 7), (7, 20)], workers);
            let claimed = drain_all(&frontier, workers);
            let unique: BTreeSet<usize> = claimed.iter().copied().collect();
            assert_eq!(claimed.len(), 20, "workers={workers}");
            assert_eq!(unique, (0..20).collect(), "workers={workers}");
        }
    }

    #[test]
    fn single_worker_claims_in_order_without_steals() {
        let frontier = Frontier::new(&[(0, 5), (5, 9)], 1);
        let claimed = drain_all(&frontier, 1);
        assert_eq!(claimed, (0..9).collect::<Vec<_>>());
        assert_eq!(frontier.steals(), 0);
    }

    #[test]
    fn steals_split_the_largest_lease() {
        // One big range; worker 0 leases it all, worker 1 must steal.
        let frontier = Frontier::new(&[(0, 16)], 2);
        assert_eq!(frontier.claim(0), Some(0));
        let stolen = frontier.claim(1).unwrap();
        // Victim had [1,16); it keeps the front half, thief starts at 8.
        assert_eq!(stolen, 8);
        assert_eq!(frontier.steals(), 1);
        // Both workers now advance their own leases contiguously.
        assert_eq!(frontier.claim(0), Some(1));
        assert_eq!(frontier.claim(1), Some(9));
    }

    #[test]
    fn one_item_leases_move_wholesale() {
        let frontier = Frontier::new(&[(0, 2)], 2);
        assert_eq!(frontier.claim(0), Some(0)); // lease now [1,2)
        assert_eq!(frontier.claim(1), Some(1)); // stolen wholesale
        assert_eq!(frontier.steals(), 1);
        assert_eq!(frontier.claim(0), None);
        assert_eq!(frontier.claim(1), None);
    }
}
