//! Output verification: every response against the direct reference run
//! of the same input, compared after the timed phase from stored
//! responses.

use crate::gen::Arrival;
use crate::model::{Counts, Reference};
use crate::report::Verdict;
use nfm_net::ServerFrame;
use nfm_serve::{CompletionStatus, InferenceResponse};
use nfm_tensor::Vector;

/// Bit-for-bit equality of two output sequences.
pub fn same_outputs(a: &[Vector], b: &[Vector]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Checks one engine round in which response id `i` answers entry `i`:
/// every entry answered once, outputs bit-identical to the reference, and
/// each wave's reuse counters summing to the direct run's.
pub fn check_round(verdict: &mut Verdict, reference: &Reference, responses: &[InferenceResponse]) {
    let entries = reference.served.len();
    let mut seen = vec![false; entries];
    let mut wave_counts = vec![Counts::default(); reference.waves.len()];
    for response in responses {
        let i = response.id as usize;
        if i >= entries || seen[i] {
            verdict.fail(|| format!("unexpected or duplicate response id {}", response.id));
            continue;
        }
        seen[i] = true;
        wave_counts[reference.wave_of[i]].add(Counts::of(&response.stats));
        verdict.check(
            response.status == CompletionStatus::Done
                && same_outputs(&response.outputs, &reference.served[i]),
            || {
                format!(
                    "request {i}: status {:?}, outputs differ from the direct run",
                    response.status
                )
            },
        );
    }
    for (i, _) in seen.iter().enumerate().filter(|(_, &s)| !s) {
        verdict.fail(|| format!("request {i}: no response"));
    }
    for (w, wave) in reference.waves.iter().enumerate() {
        if wave.entries.iter().all(|&i| seen[i]) && wave_counts[w] != wave.counts {
            verdict.fail(|| {
                format!(
                    "wave {w}: reuse counters {:?}, direct run {:?}",
                    wave_counts[w], wave.counts
                )
            });
        }
    }
}

/// Checks the server frames of a driver run in which request `k` carried
/// pool entry `pick(k)`.  The reference was built one entry per wave, so
/// each response's reuse counters must equal its entry's own.
pub fn check_arrivals(
    verdict: &mut Verdict,
    reference: &Reference,
    pick: &dyn Fn(u64) -> usize,
    sent: usize,
    arrivals: &[Arrival],
) {
    let mut answered = vec![false; sent];
    for arrival in arrivals {
        let id = arrival.frame.id();
        if id as usize >= sent || answered[id as usize] {
            verdict.fail(|| format!("unexpected or duplicate frame for id {id}"));
            continue;
        }
        answered[id as usize] = true;
        match &arrival.frame {
            ServerFrame::Response(response) => {
                let i = pick(id);
                let counts = reference.waves[reference.wave_of[i]].counts;
                verdict.check(
                    response.status == CompletionStatus::Done
                        && same_outputs(&response.outputs, &reference.served[i])
                        && Counts::of(&response.stats()) == counts,
                    || {
                        format!(
                            "request {id} (entry {i}): status {:?}, outputs or reuse counters differ from the direct run",
                            response.status
                        )
                    },
                );
            }
            other => verdict.fail(|| format!("request {id}: not served: {other:?}")),
        }
    }
    for (id, _) in answered.iter().enumerate().filter(|(_, &a)| !a) {
        verdict.fail(|| format!("request {id}: no response"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{DirectRunTimes, Wave};
    use std::time::Duration;

    fn outputs(v: f32) -> Vec<Vector> {
        vec![Vector::filled(2, v)]
    }

    fn response(id: u64, v: f32, computed: u64) -> InferenceResponse {
        let mut stats = nfm_core::ReuseStats::new();
        stats.record_computed_many(computed);
        InferenceResponse {
            id,
            status: CompletionStatus::Done,
            outputs: outputs(v),
            stats,
            queue_latency: Duration::ZERO,
            compute_latency: Duration::ZERO,
        }
    }

    /// Three entries in two waves; each request computes four neurons.
    fn reference() -> Reference {
        let counts = |n| Counts {
            evaluations: n,
            ..Counts::default()
        };
        Reference {
            served: vec![outputs(1.0), outputs(2.0), outputs(3.0)],
            waves: vec![
                Wave {
                    entries: vec![0, 1],
                    counts: counts(8),
                },
                Wave {
                    entries: vec![2],
                    counts: counts(4),
                },
            ],
            wave_of: vec![0, 0, 1],
            fidelity_pct: 100.0,
            times: DirectRunTimes::default(),
        }
    }

    #[test]
    fn a_correct_round_passes_and_each_kind_of_mismatch_is_counted() {
        let reference = reference();
        let mut verdict = Verdict::default();
        let good = [
            response(0, 1.0, 4),
            response(1, 2.0, 4),
            response(2, 3.0, 4),
        ];
        check_round(&mut verdict, &reference, &good);
        assert_eq!((verdict.attempted, verdict.failed), (3, 0));

        // A wrong output, a missing response, and a wave whose reuse
        // counters do not add up to the direct run's.
        let mut verdict = Verdict::default();
        let bad = [response(0, 1.5, 4), response(2, 3.0, 5)];
        check_round(&mut verdict, &reference, &bad);
        assert_eq!((verdict.attempted, verdict.failed), (4, 3));

        // A response nobody asked for, and the same one twice.
        let mut verdict = Verdict::default();
        let stray = [
            response(0, 1.0, 4),
            response(0, 1.0, 4),
            response(9, 1.0, 4),
        ];
        check_round(&mut verdict, &reference, &stray);
        assert_eq!(verdict.failed, 4, "duplicate, stray, and two unanswered");
    }

    #[test]
    fn outputs_compare_by_bits_not_by_value() {
        let a = vec![Vector::from_fn(3, |i| i as f32)];
        assert!(same_outputs(&a, &a.clone()));
        let mut b = a.clone();
        b[0].set(0, -0.0);
        assert!(!same_outputs(&a, &b), "0.0 and -0.0 differ in bits");
        assert!(!same_outputs(&a, &[]));
        assert!(!same_outputs(&a, &[Vector::zeros(2)]));
    }
}
