//! The memoizing evaluators checked against the independent memoized
//! reference (`nfm::eval::reference::MemoReference`), gate call by gate
//! call.
//!
//! [`Recorder`] wraps the real `BnnMemoEvaluator` (BNN or oracle),
//! mirrors every `begin_lane_sequence` and `swap_lane_state` into the
//! reference, and feeds the reference each gate call's own `x_t` and
//! `h_{t-1}`.  After every call it requires, for every lane of the
//! call: each neuron's memo entry (`yb_m` and `δb`) to match exactly,
//! `y_m` and the emitted outputs to sit within `BUDGET_MAX_ABS`, and
//! every `ReuseStats` and audit count to match exactly (so the lane's
//! hit count of every call is checked too).  Values are
//! compared where both are finite; otherwise they must agree on
//! NaN-ness (and on the infinity).
// Each suite that includes this module uses part of it.
#![allow(dead_code)]

use nfm::eval::reference::{MemoCounts, MemoPolicy, MemoReference, BUDGET_MAX_ABS};
use nfm::memo::{AuditStats, BnnMemoEvaluator, MemoLanes, MemoTable, ReuseStats};
use nfm::rnn::{DeepRnn, ExactEvaluator, GateBatch, NeuronEvaluator, Result as RnnResult};
use nfm::tensor::Vector;

/// What the check reads from the evaluator under test.
pub trait Inspect: NeuronEvaluator {
    fn lanes(&self) -> &MemoLanes;
    fn total(&self) -> ReuseStats;
    fn audits(&self) -> Option<&AuditStats>;
}

impl Inspect for BnnMemoEvaluator {
    fn lanes(&self) -> &MemoLanes {
        BnnMemoEvaluator::lanes(self)
    }
    fn total(&self) -> ReuseStats {
        *self.stats()
    }
    fn audits(&self) -> Option<&AuditStats> {
        Some(self.audit_stats())
    }
}

/// Within the budget where both are finite; otherwise the same NaN-ness
/// and, when neither is NaN, the same infinity.
pub fn close(a: f32, b: f32) -> bool {
    if a.is_finite() && b.is_finite() {
        f64::from((a - b).abs()) <= BUDGET_MAX_ABS
    } else {
        a.is_nan() == b.is_nan() && (a.is_nan() || a == b)
    }
}

/// Bit-equal, or both NaN.
pub fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Every memo entry of `table` over `net`'s gates, as bits (`y_m`,
/// `yb_m`, `δb`), `None` for a dead slot: what a run left in its table.
pub fn entry_bits(net: &DeepRnn, table: &MemoTable) -> Vec<Option<[u32; 3]>> {
    net.gates()
        .into_iter()
        .flat_map(|(id, gate)| (0..gate.neurons()).map(move |n| (id, n)))
        .map(|(id, n)| {
            table.get(id, n).map(|e| {
                [e.cached_output, e.cached_bnn_output, e.accumulated_delta].map(f32::to_bits)
            })
        })
        .collect()
}

pub fn counts(stats: &ReuseStats) -> MemoCounts {
    MemoCounts {
        evaluations: stats.evaluations(),
        reuses: stats.reuses(),
        bnn_evaluations: stats.bnn_evaluations(),
        audited: stats.audited(),
    }
}

/// The real evaluator, checked against the reference after every call.
pub struct Recorder<E> {
    /// The evaluator under test.
    pub inner: E,
    reference: MemoReference,
    // The oracle decides on the exact path's outputs; the BNN rule
    // needs none.
    oracle: bool,
    /// What the failure messages name.
    pub what: String,
    /// Gate calls checked.
    pub calls: u64,
    /// Hits the reference counted over the checked calls.
    pub hits: u64,
    /// Non-finite outputs compared.
    pub nonfinite: u64,
}

impl<E: Inspect> Recorder<E> {
    pub fn new(inner: E, policy: MemoPolicy, what: String) -> Self {
        Recorder {
            inner,
            reference: MemoReference::new(policy),
            oracle: matches!(policy, MemoPolicy::Oracle(_)),
            what,
            calls: 0,
            hits: 0,
            nonfinite: 0,
        }
    }

    fn check(&mut self, call: &GateBatch<'_>, out: &[f32]) -> RnnResult<()> {
        let (gate, id) = (call.gate, call.gate_id);
        let (isz, hsz, nsz) = (gate.input_size(), gate.hidden_size(), gate.neurons());
        let mut truth = vec![0.0; if self.oracle { out.len() } else { 0 }];
        if self.oracle {
            ExactEvaluator::new().evaluate_gate_batch(call, &mut truth)?;
        }
        // Formatted only when an assertion fails.
        let what = format_args!(
            "{} call {} {id:?} t={}",
            self.what, self.calls, call.timestep
        );
        let reuses_before = self.reference.total().reuses;
        for l in 0..call.lanes {
            let want = self.reference.step(
                l,
                id,
                gate,
                &call.xs[l * isz..(l + 1) * isz],
                &call.h_prevs[l * hsz..(l + 1) * hsz],
                truth.get(l * nsz..(l + 1) * nsz).unwrap_or_default(),
            );
            let table = self.inner.lanes().table(l);
            for n in 0..nsz {
                let got = out[l * nsz + n];
                assert!(
                    close(got, want[n]),
                    "{what} lane {l} neuron {n}: output {got} vs {}",
                    want[n]
                );
                let entry = table
                    .get(id, n)
                    .expect("every neuron has an entry after a call");
                let slot = self.reference.slot(l, id, n).expect("and in the reference");
                let matches = same(entry.cached_bnn_output, slot.yb_m)
                    && same(entry.accumulated_delta, slot.delta)
                    && close(entry.cached_output, slot.y_m);
                assert!(
                    matches,
                    "{what} lane {l} neuron {n}: entry {entry:?} vs {slot:?}"
                );
                self.nonfinite += u64::from(!got.is_finite());
            }
            let lane = counts(self.inner.lanes().stats(l));
            assert_eq!(
                lane,
                self.reference.lane_counts(l),
                "{what} lane {l} counts"
            );
        }
        assert_eq!(
            counts(&self.inner.total()),
            self.reference.total(),
            "{what} totals"
        );
        self.hits += self.reference.total().reuses - reuses_before;
        if let Some(audits) = self.inner.audits() {
            let (got, want) = (audits.layers(), self.reference.audits());
            for layer in 0..got.len().max(want.len()) {
                let g = got.get(layer).copied().unwrap_or_default();
                let w = want.get(layer).copied().unwrap_or_default();
                assert_eq!(
                    (g.hits, g.audited),
                    (w.hits, w.audited),
                    "{what} audits {layer}"
                );
                let tolerance = 2.0 * BUDGET_MAX_ABS * g.audited as f64;
                let (a, b) = (g.error_sum, w.error_sum);
                assert!(
                    a == b || (a - b).abs() <= tolerance || (a.is_nan() && b.is_nan()),
                    "{what} audit error sum {layer}: {a} vs {b}"
                );
            }
        }
        self.calls += 1;
        Ok(())
    }
}

impl<E: Inspect> NeuronEvaluator for Recorder<E> {
    fn evaluate_gate_batch(&mut self, call: &GateBatch<'_>, out: &mut [f32]) -> RnnResult<()> {
        self.inner.evaluate_gate_batch(call, out)?;
        self.check(call, out)
    }

    fn begin_batch(&mut self, lanes: usize) {
        self.inner.begin_batch(lanes);
    }

    fn begin_lane_sequence(&mut self, lane: usize) {
        self.inner.begin_lane_sequence(lane);
        self.reference.begin_lane(lane);
    }

    fn swap_lane_state(&mut self, a: usize, b: usize) {
        self.inner.swap_lane_state(a, b);
        self.reference.swap_lanes(a, b);
    }
}

/// Runs `seq` alone through `inner` under the check, returning the
/// outputs and the evaluator.
pub fn checked_run<E: Inspect>(
    net: &DeepRnn,
    seq: &[Vector],
    inner: E,
    policy: MemoPolicy,
) -> (Vec<Vector>, E) {
    let mut recorder = Recorder::new(inner, policy, format!("{policy:?}"));
    let out = net.run(seq, &mut recorder).unwrap();
    (out, recorder.inner)
}
