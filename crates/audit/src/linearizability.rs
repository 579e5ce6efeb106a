//! Wing–Gong / WGL linearizability checking for the atomic register.
//!
//! The checker searches for a legal sequential order of the recorded
//! operations that respects real-time precedence: operation `p`
//! precedes `o` iff `p` returned strictly before `o` was invoked;
//! otherwise they are concurrent and may linearize either way. An
//! operation that never returned (a timeout — Jepsen's `:info`) is
//! concurrent with everything after its invocation and *optional*: a
//! timed-out write may or may not have taken effect, so the search may
//! linearize it or leave it out, whichever makes the history legal.
//! Timed-out reads impose no constraint and are excluded up front by
//! the extractor.
//!
//! The search is the classic memoized DFS (Wing–Gong, with the
//! Lowe-style state cache): the frontier of linearizable candidates is
//! the set of unlinearized operations invoked no later than the
//! earliest unlinearized response; applying one yields a new
//! `(linearized-set, register-value)` state, and states already proven
//! dead are never revisited. Candidate and minimum-response tracking
//! use dancing-links lists over invocation- and response-sorted
//! orders, so each visited node costs O(concurrency width), not O(n).
//!
//! On failure the checker produces a **minimized witness**: the
//! earliest truncation of the history that is already non-linearizable
//! (violations are monotone under truncation, so the cutoff is found
//! by binary search), greedily shrunk by removing every operation the
//! contradiction does not need.

use std::collections::HashSet;

/// The register's initial value (reads before any write return it).
pub const INITIAL_VALUE: u64 = 0;

/// `ret` value of an operation that never returned.
pub const PENDING: u64 = u64::MAX;

/// What a register operation did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegOpKind {
    /// A write of `value`.
    Write {
        /// The written value.
        value: u64,
    },
    /// A read that returned `returned`.
    Read {
        /// The value the read observed.
        returned: u64,
    },
}

/// One register operation with its closed real-time interval
/// `[inv, ret]` in virtual rounds (`ret == PENDING` if it never
/// returned).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegOp {
    /// Request id (for witness labelling).
    pub id: u64,
    /// Write or read.
    pub kind: RegOpKind,
    /// Invocation round.
    pub inv: u64,
    /// Response round, or [`PENDING`].
    pub ret: u64,
}

impl RegOp {
    fn describe(&self) -> String {
        let span = if self.ret == PENDING {
            format!("[{}, ∞)", self.inv)
        } else {
            format!("[{}, {}]", self.inv, self.ret)
        };
        match self.kind {
            RegOpKind::Write { value } => format!("#{} W({value}) {span}", self.id),
            RegOpKind::Read { returned } => format!("#{} R→{returned} {span}", self.id),
        }
    }
}

/// Outcome of a linearizability check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LinResult {
    /// A legal linearization exists.
    Ok,
    /// No legal linearization; `witness` is a minimized operation
    /// subset that is already contradictory.
    Violation {
        /// Human-readable description of the minimized witness ops.
        witness: Vec<String>,
    },
    /// The search budget ran out before a verdict. Nothing was proven
    /// either way. One merged history of a many-VN register grid
    /// exhausts it (the 5×5 and 16×16 grids, with a few dozen `:info`
    /// writes); the per-virtual-node sub-histories the audit checks
    /// stay far below it.
    BudgetExhausted,
}

/// Default node-visit budget. A single virtual node's history explores
/// a few thousand nodes (E17); merged multi-VN histories with many
/// concurrent `:info` writes can exhaust it, which is why the audit
/// checks each virtual node's sub-history on its own.
pub const DEFAULT_BUDGET: u64 = 5_000_000;

/// Checks `ops` for linearizability against the sequential register
/// with initial value [`INITIAL_VALUE`].
pub fn check_register(ops: &[RegOp]) -> LinResult {
    let mut budget = DEFAULT_BUDGET;
    match linearizable(ops, &mut budget) {
        None => LinResult::BudgetExhausted,
        Some(true) => LinResult::Ok,
        Some(false) => LinResult::Violation {
            witness: minimize(ops),
        },
    }
}

/// Drops every timed-out (`:info`) write that no read in `ops`
/// returned, unless it wrote [`INITIAL_VALUE`]. Such a write is
/// optional and unobserved: any legal order that includes it stays
/// legal without it (it must be overwritten before any read), so it
/// only widens the search (the Knossos/Porcupine treatment of `:info`
/// ops). Relies on write values being unique, as the traffic adapters
/// guarantee.
pub fn prune_unread_writes(ops: &[RegOp]) -> Vec<RegOp> {
    let read: HashSet<u64> = ops
        .iter()
        .filter_map(|o| match o.kind {
            RegOpKind::Read { returned } => Some(returned),
            RegOpKind::Write { .. } => None,
        })
        .collect();
    ops.iter()
        .filter(|o| match o.kind {
            RegOpKind::Write { value } => {
                o.ret != PENDING || value == INITIAL_VALUE || read.contains(&value)
            }
            RegOpKind::Read { .. } => true,
        })
        .copied()
        .collect()
}

/// Bit helpers over the linearized set.
#[inline]
fn set_bit(set: &mut [u64], i: usize) {
    set[i / 64] |= 1 << (i % 64);
}

#[inline]
fn clear_bit(set: &mut [u64], i: usize) {
    set[i / 64] &= !(1 << (i % 64));
}

/// Doubly-linked list over a fixed visit order, with O(1) unlink and
/// exact-reverse relink (dancing links).
struct Links {
    /// `next[i]`/`prev[i]` use `n` as the head/tail sentinel.
    next: Vec<usize>,
    prev: Vec<usize>,
    n: usize,
}

impl Links {
    /// Builds the list threading `order` (a permutation of `0..n`).
    fn new(order: &[usize]) -> Self {
        let n = order.len();
        let mut next = vec![n; n + 1];
        let mut prev = vec![n; n + 1];
        let mut at = n; // sentinel
        for &i in order {
            next[at] = i;
            prev[i] = at;
            at = i;
        }
        next[at] = n;
        prev[n] = at;
        Links { next, prev, n }
    }

    fn head(&self) -> usize {
        self.next[self.n]
    }

    fn unlink(&mut self, i: usize) {
        let (p, q) = (self.prev[i], self.next[i]);
        self.next[p] = q;
        self.prev[q] = p;
    }

    fn relink(&mut self, i: usize) {
        let (p, q) = (self.prev[i], self.next[i]);
        self.next[p] = i;
        self.prev[q] = i;
    }
}

/// One DFS path entry: the op applied and the state needed to undo it.
struct Frame {
    chosen: usize,
    prev_value: u64,
}

/// Memoized WGL search. Returns `None` if `budget` node visits were
/// exhausted, otherwise whether a legal linearization exists.
fn linearizable(ops: &[RegOp], budget: &mut u64) -> Option<bool> {
    let n = ops.len();
    if n == 0 {
        return Some(true);
    }
    let mut by_inv: Vec<usize> = (0..n).collect();
    by_inv.sort_by_key(|&i| (ops[i].inv, i));
    let mut by_ret: Vec<usize> = (0..n).collect();
    by_ret.sort_by_key(|&i| (ops[i].ret, i));
    let mut inv_list = Links::new(&by_inv);
    let mut ret_list = Links::new(&by_ret);

    let words = n.div_ceil(64);
    let mut linearized = vec![0u64; words];
    let mut value = INITIAL_VALUE;
    let mut remaining_required = ops.iter().filter(|o| o.ret != PENDING).count();
    if remaining_required == 0 {
        return Some(true); // nothing observable happened
    }
    let mut memo: HashSet<(Box<[u64]>, u64)> = HashSet::new();
    let mut stack: Vec<Frame> = Vec::new();
    // The candidate under consideration at the current level; `n` when
    // the scan must (re)start from the head of the invocation list.
    let mut cand = usize::MAX;

    loop {
        // Earliest unlinearized response bounds the frontier.
        let min_ret = {
            let h = ret_list.head();
            if h == n {
                PENDING
            } else {
                ops[h].ret
            }
        };
        // Scan for the next applicable candidate.
        if cand == usize::MAX {
            cand = inv_list.head();
        }
        let mut applied = false;
        while cand != n && ops[cand].inv <= min_ret {
            let legal = match ops[cand].kind {
                RegOpKind::Write { .. } => true,
                RegOpKind::Read { returned } => returned == value,
            };
            if legal {
                if *budget == 0 {
                    return None;
                }
                *budget -= 1;
                // Apply.
                let prev_value = value;
                if let RegOpKind::Write { value: w } = ops[cand].kind {
                    value = w;
                }
                set_bit(&mut linearized, cand);
                if ops[cand].ret != PENDING {
                    remaining_required -= 1;
                    if remaining_required == 0 {
                        return Some(true);
                    }
                }
                if memo.insert((linearized.clone().into_boxed_slice(), value)) {
                    inv_list.unlink(cand);
                    ret_list.unlink(cand);
                    stack.push(Frame {
                        chosen: cand,
                        prev_value,
                    });
                    cand = usize::MAX; // restart scan in the new state
                    applied = true;
                    break;
                }
                // State already proven dead: undo and keep scanning.
                clear_bit(&mut linearized, cand);
                if ops[cand].ret != PENDING {
                    remaining_required += 1;
                }
                value = prev_value;
            }
            cand = inv_list.next[cand];
        }
        if applied {
            continue;
        }
        // Exhausted the frontier at this level: backtrack.
        let Some(frame) = stack.pop() else {
            return Some(false);
        };
        let i = frame.chosen;
        inv_list.relink(i);
        ret_list.relink(i);
        clear_bit(&mut linearized, i);
        if ops[i].ret != PENDING {
            remaining_required += 1;
        }
        value = frame.prev_value;
        cand = inv_list.next[i]; // resume after the undone choice
    }
}

/// Truncates the history at response-time `cut`: operations invoked
/// after `cut` disappear, responses after `cut` become pending.
fn truncate(ops: &[RegOp], cut: u64) -> Vec<RegOp> {
    ops.iter()
        .filter(|o| o.inv <= cut)
        .map(|o| {
            let mut o = *o;
            if o.ret > cut {
                o.ret = PENDING;
            }
            o
        })
        // A truncated-to-pending read constrains nothing; drop it like
        // the extractor drops timed-out reads.
        .filter(|o| !(o.ret == PENDING && matches!(o.kind, RegOpKind::Read { .. })))
        .collect()
}

fn fails(ops: &[RegOp]) -> bool {
    let mut budget = DEFAULT_BUDGET;
    linearizable(ops, &mut budget) == Some(false)
}

/// Minimizes a failing history to a small contradictory core: find the
/// earliest failing truncation (failure is monotone in the cut round),
/// then greedily drop every op the contradiction survives without.
fn minimize(ops: &[RegOp]) -> Vec<String> {
    let mut cuts: Vec<u64> = ops
        .iter()
        .map(|o| o.ret)
        .filter(|&r| r != PENDING)
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    // Binary search the earliest failing cut.
    let (mut lo, mut hi) = (0usize, cuts.len().saturating_sub(1));
    while lo < hi {
        let mid = (lo + hi) / 2;
        if fails(&truncate(ops, cuts[mid])) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut core = truncate(ops, cuts[lo]);
    // Greedy shrink (deterministic order: latest ops first, so the
    // early context ops a violation depends on survive).
    let mut i = core.len();
    while i > 0 {
        i -= 1;
        let mut without = core.clone();
        without.remove(i);
        if fails(&without) {
            core = without;
        }
    }
    core.iter().map(RegOp::describe).collect()
}

/// Generates a legal register history of `len` operations — writes of
/// unique values interleaved with reads of the then-current value,
/// with seeded interval jitter producing bounded overlap (generation
/// order is always a valid linearization: invocations strictly
/// increase, so no later op ever precedes an earlier one in real
/// time). Shared by the checker bench and the tests.
pub fn synthetic_history(len: usize, seed: u64) -> Vec<RegOp> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(len);
    let mut current = INITIAL_VALUE;
    let mut t = 0u64;
    for i in 0..len as u64 {
        let inv = t + rng.random_range(0..2u64);
        let ret = inv + 1 + rng.random_range(0..3u64);
        t = inv + 1;
        if rng.random_bool(0.5) {
            let value = 1000 + i;
            ops.push(RegOp {
                id: i,
                kind: RegOpKind::Write { value },
                inv,
                ret,
            });
            current = value;
        } else {
            ops.push(RegOp {
                id: i,
                kind: RegOpKind::Read { returned: current },
                inv,
                ret,
            });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(id: u64, value: u64, inv: u64, ret: u64) -> RegOp {
        RegOp {
            id,
            kind: RegOpKind::Write { value },
            inv,
            ret,
        }
    }

    fn r(id: u64, returned: u64, inv: u64, ret: u64) -> RegOp {
        RegOp {
            id,
            kind: RegOpKind::Read { returned },
            inv,
            ret,
        }
    }

    #[test]
    fn empty_and_sequential_histories_pass() {
        assert_eq!(check_register(&[]), LinResult::Ok);
        let ops = [
            w(1, 10, 0, 2),
            r(2, 10, 3, 4),
            w(3, 20, 5, 6),
            r(4, 20, 7, 8),
        ];
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn initial_value_reads_pass() {
        let ops = [r(1, INITIAL_VALUE, 0, 1), w(2, 5, 2, 3), r(3, 5, 4, 5)];
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn concurrent_operations_may_reorder() {
        // R→7 overlaps W(7): legal (read linearizes after the write).
        let ops = [w(1, 7, 0, 10), r(2, 7, 2, 3)];
        assert_eq!(check_register(&ops), LinResult::Ok);
        // R→0 also overlaps W(7): legal the other way around.
        let ops = [w(1, 7, 0, 10), r(2, 0, 2, 3)];
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn stale_read_after_acknowledged_write_fails() {
        let ops = [w(1, 7, 0, 2), r(2, 0, 5, 6)];
        let LinResult::Violation { witness } = check_register(&ops) else {
            panic!("stale read must fail");
        };
        assert_eq!(witness.len(), 2, "minimal witness is the pair: {witness:?}");
        assert!(witness.iter().any(|l| l.contains("W(7)")), "{witness:?}");
        assert!(witness.iter().any(|l| l.contains("R→0")), "{witness:?}");
    }

    #[test]
    fn read_of_never_written_value_fails() {
        let ops = [w(1, 7, 0, 2), r(2, 999, 5, 6)];
        assert!(matches!(check_register(&ops), LinResult::Violation { .. }));
    }

    #[test]
    fn pending_write_may_or_may_not_have_happened() {
        // The timed-out W(9) explains the read...
        let ops = [w(1, 9, 0, PENDING), r(2, 9, 5, 6)];
        assert_eq!(check_register(&ops), LinResult::Ok);
        // ...and its absence explains a 0 read *after* another op.
        let ops = [w(1, 9, 0, PENDING), r(2, 0, 5, 6), r(3, 0, 7, 8)];
        assert_eq!(check_register(&ops), LinResult::Ok);
        // But once a read observed it, later reads cannot unsee it.
        let ops = [w(1, 9, 0, PENDING), r(2, 9, 5, 6), r(3, 0, 7, 8)];
        assert!(matches!(check_register(&ops), LinResult::Violation { .. }));
    }

    #[test]
    fn value_must_trace_to_the_latest_possible_write() {
        // W(1) then W(2) sequentially; a read after both returning 1
        // is stale.
        let ops = [w(1, 1, 0, 1), w(2, 2, 2, 3), r(3, 1, 4, 5)];
        assert!(matches!(check_register(&ops), LinResult::Violation { .. }));
        // If W(2) overlaps the read, 1 is fine.
        let ops = [w(1, 1, 0, 1), w(2, 2, 2, 10), r(3, 1, 4, 5)];
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn witness_is_minimized_to_the_contradiction() {
        // Long legal prefix, then the stale-read pair.
        let mut ops: Vec<RegOp> = (0..40)
            .map(|i| {
                if i % 2 == 0 {
                    w(i, 100 + i, 4 * i, 4 * i + 2)
                } else {
                    r(i, 100 + i - 1, 4 * i, 4 * i + 2)
                }
            })
            .collect();
        ops.push(w(90, 7, 400, 402));
        ops.push(r(91, 0, 405, 406));
        let LinResult::Violation { witness } = check_register(&ops) else {
            panic!("must fail");
        };
        assert!(
            witness.len() <= 3,
            "witness must shrink past the legal prefix: {witness:?}"
        );
    }

    #[test]
    fn long_low_concurrency_history_is_fast_and_passes() {
        // The bench shape: 10k ops, writes of unique values with
        // occasional overlap.
        let ops = synthetic_history(10_000, 42);
        assert_eq!(check_register(&ops), LinResult::Ok);
    }

    #[test]
    fn links_unlink_relink_restore_exactly() {
        let mut l = Links::new(&[2, 0, 1]);
        assert_eq!(l.head(), 2);
        l.unlink(0);
        assert_eq!(l.next[2], 1);
        l.relink(0);
        assert_eq!(l.next[2], 0);
        assert_eq!(l.next[0], 1);
    }
}
