//! Seeded history mutations for checker self-tests.
//!
//! Each [`Mutation`] corrupts a recorded history in a way the checkers
//! *must* detect — the property tests prove every checker accepts
//! recorded-legal histories and rejects every applicable mutation:
//!
//! * [`Mutation::Drop`] removes the invocation of a resolved
//!   operation, leaving a dangling response.
//! * [`Mutation::Swap`] swaps an operation's invocation and response
//!   rounds, making the response precede the invocation.
//! * [`Mutation::Forge`] corrupts a response semantically, per app: a
//!   read returns a never-written value, a client is re-granted the
//!   lock it still holds, a lookup answers a never-reported cell, a
//!   packet is delivered twice.
//!
//! [`drop_response`] is deliberately *not* a corruption: removing a
//! response turns the operation into a timeout-like `:info` op, which
//! a correct checker must still accept (the Jepsen concurrent-forever
//! rule). The property tests assert that too.

use crate::history::{Event, History};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vi_traffic::{AuditRecord, OpOutcome};

/// A guaranteed-illegal corruption of a history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Remove the invocation of a resolved op (dangling response).
    Drop,
    /// Swap an op's invocation and response rounds (response first).
    Swap,
    /// Corrupt a response semantically (app-specific).
    Forge,
}

impl Mutation {
    /// All mutations, in test order.
    pub fn all() -> [Mutation; 3] {
        [Mutation::Drop, Mutation::Swap, Mutation::Forge]
    }
}

/// Picks a seeded index into a collection of `n` candidates, `None`
/// when there is nothing to pick. The shared "choose a target"
/// primitive of both the history mutators below and the `vi-fuzz`
/// spec mutators — one idiom for every seeded choice keeps mutation
/// schedules reproducible from the seed alone.
pub fn pick(rng: &mut StdRng, n: usize) -> Option<usize> {
    (n > 0).then(|| rng.random_range(0..n))
}

/// Applies `mutation` to a copy of `history`, choosing the target with
/// the seeded RNG. Returns `None` when the history offers no
/// applicable target (e.g. forging a read in a history with no
/// completed reads).
pub fn mutate(history: &History, mutation: Mutation, seed: u64) -> Option<History> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = history.clone();
    match mutation {
        Mutation::Drop => {
            // Invocations that were resolved (complete or timeout).
            let resolved: Vec<u64> = out
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Complete { id, .. } | Event::Timeout { id, .. } => Some(*id),
                    _ => None,
                })
                .collect();
            let targets: Vec<usize> = out
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e {
                    Event::Invoke { id, .. } if resolved.contains(id) => Some(i),
                    _ => None,
                })
                .collect();
            let victim = targets[pick(&mut rng, targets.len())?];
            out.events.remove(victim);
        }
        Mutation::Swap => {
            // Ops whose completion round strictly follows invocation.
            let mut targets: Vec<(usize, usize)> = Vec::new(); // (inv idx, complete idx)
            for (ci, e) in out.events.iter().enumerate() {
                let Event::Complete { id, vr, .. } = e else {
                    continue;
                };
                if let Some(ii) = out.events.iter().position(
                    |f| matches!(f, Event::Invoke { id: i, vr: ivr, .. } if i == id && ivr < vr),
                ) {
                    targets.push((ii, ci));
                }
            }
            let (ii, ci) = targets[pick(&mut rng, targets.len())?];
            let (inv_vr, ret_vr) = match (&out.events[ii], &out.events[ci]) {
                (Event::Invoke { vr: a, .. }, Event::Complete { vr: b, .. }) => (*a, *b),
                _ => unreachable!("targets index invoke/complete pairs"),
            };
            if let Event::Invoke { vr, .. } = &mut out.events[ii] {
                *vr = ret_vr;
            }
            if let Event::Complete { vr, .. } = &mut out.events[ci] {
                *vr = inv_vr;
            }
        }
        Mutation::Forge => forge(&mut out, &mut rng)?,
    }
    Some(out)
}

/// App-specific semantic forgery (see module docs).
fn forge(out: &mut History, rng: &mut StdRng) -> Option<()> {
    use vi_traffic::AppKind;
    match out.app {
        AppKind::Register => {
            let targets: Vec<usize> = out
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| {
                    matches!(
                        e,
                        Event::Complete {
                            outcome: OpOutcome::ReadValue { .. },
                            ..
                        }
                    )
                    .then_some(i)
                })
                .collect();
            let victim = targets[pick(rng, targets.len())?];
            if let Event::Complete { outcome, .. } = &mut out.events[victim] {
                // No write ever stores u64::MAX (values are request
                // ids), so this read can never linearize at the
                // virtual node that served it.
                if let OpOutcome::ReadValue { vn, .. } = *outcome {
                    *outcome = OpOutcome::ReadValue {
                        tag: u64::MAX,
                        value: u64::MAX,
                        vn,
                    };
                }
            }
        }
        AppKind::Mutex => {
            let targets: Vec<(usize, AuditRecord)> = out
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e {
                    Event::Protocol {
                        record: record @ AuditRecord::Granted { .. },
                    } => Some((i, *record)),
                    _ => None,
                })
                .collect();
            let (victim, record) = targets[pick(rng, targets.len())?];
            // A second grant to the same client with no release
            // between: the fifo_grants alternation check must fire.
            out.events.insert(victim + 1, Event::Protocol { record });
        }
        AppKind::Tracking => {
            let targets: Vec<usize> = out
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| {
                    matches!(
                        e,
                        Event::Complete {
                            outcome: OpOutcome::Answered { .. },
                            ..
                        }
                    )
                    .then_some(i)
                })
                .collect();
            let victim = targets[pick(rng, targets.len())?];
            if let Event::Complete { outcome, .. } = &mut out.events[victim] {
                // No client ever reports this cell (positions are
                // quantized from in-arena coordinates).
                *outcome = OpOutcome::Answered {
                    cell: Some((u32::MAX, u32::MAX)),
                };
            }
        }
        AppKind::Georouting => {
            let targets: Vec<(usize, AuditRecord)> = out
                .events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e {
                    Event::Protocol {
                        record: record @ AuditRecord::Delivered { .. },
                    } => Some((i, *record)),
                    _ => None,
                })
                .collect();
            let (victim, record) = targets[pick(rng, targets.len())?];
            out.events.insert(victim + 1, Event::Protocol { record });
        }
    }
    Some(())
}

/// Removes the response of a seeded-chosen *completed* operation. The
/// result is still a legal history — the op becomes concurrent-forever
/// — and every checker must keep accepting it.
pub fn drop_response(history: &History, seed: u64) -> Option<History> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = history.clone();
    let targets: Vec<usize> = out
        .events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| matches!(e, Event::Complete { .. }).then_some(i))
        .collect();
    let victim = targets[pick(&mut rng, targets.len())?];
    out.events.remove(victim);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::audit;
    use vi_traffic::{AppKind, OpDesc};

    fn register_history() -> History {
        History::from_events(
            AppKind::Register,
            vec![
                Event::Invoke {
                    id: 1,
                    client: 0,
                    vr: 1,
                    op: OpDesc::Write { value: 1 },
                },
                Event::Complete {
                    id: 1,
                    client: 0,
                    vr: 3,
                    outcome: OpOutcome::Acked { vn: 0 },
                },
                Event::Invoke {
                    id: 2,
                    client: 1,
                    vr: 4,
                    op: OpDesc::Read,
                },
                Event::Complete {
                    id: 2,
                    client: 1,
                    vr: 6,
                    outcome: OpOutcome::ReadValue {
                        tag: 1,
                        value: 1,
                        vn: 0,
                    },
                },
            ],
        )
    }

    #[test]
    fn every_mutation_flips_a_clean_register_history_to_rejected() {
        let clean = register_history();
        assert!(audit(&clean).ok());
        for m in Mutation::all() {
            let broken = mutate(&clean, m, 7).expect("applicable");
            assert!(!audit(&broken).ok(), "{m:?} must be rejected");
        }
    }

    #[test]
    fn drop_response_keeps_the_history_legal() {
        let clean = register_history();
        let looser = drop_response(&clean, 3).expect("has completions");
        assert_eq!(looser.events.len(), clean.events.len() - 1);
        assert!(audit(&looser).ok(), "{:?}", audit(&looser));
    }

    #[test]
    fn inapplicable_mutations_return_none() {
        let empty = History::from_events(AppKind::Register, Vec::new());
        for m in Mutation::all() {
            assert_eq!(mutate(&empty, m, 1), None);
        }
        assert_eq!(drop_response(&empty, 1), None);
    }

    #[test]
    fn mutations_are_seed_deterministic() {
        let clean = register_history();
        assert_eq!(
            mutate(&clean, Mutation::Forge, 11),
            mutate(&clean, Mutation::Forge, 11)
        );
    }
}
