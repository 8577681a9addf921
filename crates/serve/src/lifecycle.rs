//! The hot-swap lifecycle: stage a model version, canary it against the
//! incumbent, decide, then promote or roll back.
//!
//! [`Lifecycle`] is one plain value — no lock, no thread, no clock.  It
//! owns every swap record, the staged version's registry entry included,
//! so the [`ModelRegistry`] only ever holds live versions.  The engine
//! keeps it beside the registry under its one lock and calls each
//! transition where its event happens: [`stage`](Lifecycle::stage) from
//! `swap_model`, [`route`](Lifecycle::route) from `submit`,
//! [`observe`](Lifecycle::observe) and [`apply`](Lifecycle::apply) from
//! a worker emitting a response, [`evict`](Lifecycle::evict) from
//! `evict_model`.  A decision is applied by the emission that lands its
//! last canary pair, so traffic alone — in process or over the wire —
//! carries a swap to its end.

use crate::error::EngineError;
use crate::registry::{ContextKey, ModelEntry, ModelId, ModelRegistry, ModelVersion, Resolved};
use crate::request::{InferenceResponse, Priority, RequestOptions};
use crate::worker::ResponseTag;
use nfm_core::{Model, Predictor, ReuseStats};
use nfm_tensor::Vector;
use std::collections::HashMap;
use std::sync::Arc;

/// Which live requests a staged hot swap canaries on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CanaryRule {
    /// Route this fraction (`(0, 1]`) of the model's traffic to the
    /// staged version.  Routing is a deterministic proportional
    /// counter, not sampling: over any window the canary share tracks
    /// the fraction exactly.
    Fraction(f32),
    /// Route exactly this priority class to the staged version.
    Priority(Priority),
}

/// How a hot swap canaries and when it decides.
///
/// Every canaried request runs **twice**: once on the staged version
/// (the response the caller sees) and once on the incumbent (a shadow,
/// suppressed from the response stream but compared output-by-output).
/// The swap promotes after [`min_requests`](CanaryConfig::min_requests)
/// comparisons stay within [`tolerance`](CanaryConfig::tolerance), and
/// rolls back on the first comparison that exceeds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanaryConfig {
    /// Which requests canary.
    pub rule: CanaryRule,
    /// Completed canary/incumbent comparisons required to promote
    /// (`>= 1`).
    pub min_requests: u64,
    /// Largest tolerated absolute output difference between the staged
    /// and incumbent versions.  `0.0` demands bit-identical outputs —
    /// right for weight-preserving swaps (artifact reloads); widen it
    /// for genuinely retrained weights.
    pub tolerance: f32,
}

impl CanaryConfig {
    /// Canary `fraction` of the model's traffic, promote after 8 clean
    /// comparisons at zero tolerance.
    pub fn fraction(fraction: f32) -> Self {
        CanaryConfig {
            rule: CanaryRule::Fraction(fraction),
            min_requests: 8,
            tolerance: 0.0,
        }
    }

    /// Canary exactly one priority class, promote after 8 clean
    /// comparisons at zero tolerance.
    pub fn priority(priority: Priority) -> Self {
        CanaryConfig {
            rule: CanaryRule::Priority(priority),
            min_requests: 8,
            tolerance: 0.0,
        }
    }

    /// Sets the comparisons required to promote (`>= 1`).
    pub fn min_requests(mut self, min_requests: u64) -> Self {
        self.min_requests = min_requests;
        self
    }

    /// Sets the tolerated absolute output difference.
    pub fn tolerance(mut self, tolerance: f32) -> Self {
        self.tolerance = tolerance;
        self
    }

    fn validate(&self) -> Result<(), EngineError> {
        if let CanaryRule::Fraction(f) = self.rule {
            if !(f > 0.0 && f <= 1.0) {
                return Err(EngineError::InvalidConfig {
                    what: format!("canary fraction must be in (0, 1], got {f}"),
                });
            }
        }
        if self.min_requests == 0 {
            return Err(EngineError::InvalidConfig {
                what: "canary min_requests must be >= 1".into(),
            });
        }
        if self.tolerance.is_nan() || self.tolerance < 0.0 {
            return Err(EngineError::InvalidConfig {
                what: format!("canary tolerance must be >= 0, got {}", self.tolerance),
            });
        }
        Ok(())
    }
}

/// How a hot swap ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcome {
    /// Enough canary comparisons matched; the staged version is live.
    Promoted,
    /// A comparison exceeded the tolerance; the staged version was
    /// discarded and the incumbent kept serving.
    RolledBack,
}

/// Live progress of a staged hot swap
/// ([`Engine::swap_status`](crate::Engine::swap_status)).
#[derive(Debug, Clone)]
pub struct SwapStatus {
    /// The model being swapped.
    pub model: ModelId,
    /// The incumbent version.
    pub from: ModelVersion,
    /// The staged version.
    pub to: ModelVersion,
    /// Requests for this model observed while the swap was undecided.
    pub seen: u64,
    /// Canary pairs routed so far.
    pub canaries: u64,
    /// Comparisons completed within tolerance.
    pub matched: u64,
    /// Canary pairs still in flight.
    pub in_flight: usize,
    /// The decision, once reached.  It is applied — and the swap leaves
    /// `swap_status` for `swap_reports` — when the last of the
    /// `in_flight` pairs lands.
    pub decision: Option<SwapOutcome>,
}

/// The record of a finished hot swap
/// ([`Engine::swap_reports`](crate::Engine::swap_reports)).
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// The model that was swapped.
    pub model: ModelId,
    /// The version that was serving when the swap was staged.
    pub from: ModelVersion,
    /// The version that was staged.
    pub to: ModelVersion,
    /// How the swap ended.
    pub outcome: SwapOutcome,
    /// Canary pairs routed.
    pub canaries: u64,
    /// Comparisons completed within tolerance.
    pub matched: u64,
    /// Largest absolute output difference observed across all
    /// comparisons.
    pub max_abs_diff: f32,
    /// Reuse counters accumulated by the staged version's canary runs.
    pub canary_stats: ReuseStats,
    /// Reuse counters accumulated by the incumbent's shadow runs.
    pub incumbent_stats: ReuseStats,
}

/// Largest absolute element difference between two output sequences.
/// Elements with equal bits differ by 0, so identical non-finite
/// outputs match.  Otherwise a non-finite difference (a NaN or an
/// infinity on one side) and a shape mismatch are infinite, so neither
/// can promote.
fn max_abs_diff(a: &[Vector], b: &[Vector]) -> f32 {
    if a.len() != b.len() {
        return f32::INFINITY;
    }
    let mut max = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        if x.len() != y.len() {
            return f32::INFINITY;
        }
        for (u, v) in x.as_slice().iter().zip(y.as_slice()) {
            if u.to_bits() == v.to_bits() {
                continue;
            }
            let d = (u - v).abs();
            if !d.is_finite() {
                return f32::INFINITY;
            }
            max = max.max(d);
        }
    }
    max
}

/// One staged swap: the staged entry, its canary rule and the evidence
/// gathered so far.
#[derive(Debug)]
struct Swap {
    staged: ModelEntry,
    from: ModelVersion,
    config: CanaryConfig,
    seen: u64,
    routed: u64,
    matched: u64,
    max_abs_diff: f32,
    /// Canary pairs in flight, by serial, holding whichever half landed
    /// first.
    pending: HashMap<u64, Option<InferenceResponse>>,
    decision: Option<SwapOutcome>,
    canary_stats: ReuseStats,
    incumbent_stats: ReuseStats,
}

impl Swap {
    /// Judges one completed pair, moving the swap toward promotion or
    /// rollback.  Comparisons after the decision only widen
    /// `max_abs_diff`.
    fn judge(&mut self, canary: &InferenceResponse, incumbent: &InferenceResponse) {
        self.canary_stats.merge(&canary.stats);
        self.incumbent_stats.merge(&incumbent.stats);
        // A pair where either half expired or was rejected is
        // inconclusive: it neither promotes nor rolls back.
        if !(canary.is_done() && incumbent.is_done()) {
            return;
        }
        let diff = max_abs_diff(&canary.outputs, &incumbent.outputs);
        self.max_abs_diff = self.max_abs_diff.max(diff);
        if self.decision.is_some() {
            return;
        }
        if diff > self.config.tolerance || !diff.is_finite() {
            self.decision = Some(SwapOutcome::RolledBack);
        } else {
            self.matched += 1;
            if self.matched >= self.config.min_requests {
                self.decision = Some(SwapOutcome::Promoted);
            }
        }
    }
}

/// A request routed by [`Lifecycle::route`].
#[derive(Debug)]
pub(crate) struct Routed {
    /// Unique per routed request; both halves of a canary pair carry it.
    pub(crate) serial: u64,
    /// What answers the caller: the staged version for a canary pair.
    pub(crate) primary: Resolved,
    /// The incumbent's suppressed shadow run of a canary pair.
    pub(crate) shadow: Option<Resolved>,
}

/// A swap whose decision is made and whose last canary pair has landed
/// ([`Lifecycle::observe`]'s result, [`Lifecycle::apply`]'s input).
#[derive(Debug)]
pub(crate) struct Decision {
    swap: Swap,
    outcome: SwapOutcome,
}

/// Every staged swap, plus the reports of the finished ones.
#[derive(Debug, Default)]
pub(crate) struct Lifecycle {
    swaps: Vec<Swap>,
    reports: Vec<SwapReport>,
    next_serial: u64,
}

impl Lifecycle {
    /// Stages `next` as version `live + 1` of `model`, served under
    /// `predictors` on its own mirror, and starts canarying by `config`.
    /// Each incumbent policy whose name `predictors` does not take is
    /// filed on the staged version too: a promotion lands while traffic
    /// flows, and must not stop any request name from resolving.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] for a degenerate `config` or no
    /// predictor, [`EngineError::UnknownModel`] when `registry` does not
    /// serve `model`, [`EngineError::SwapInProgress`] when a swap of it
    /// is staged, and [`EngineError::DuplicatePredictor`].
    pub(crate) fn stage<P: Predictor + 'static>(
        &mut self,
        registry: &ModelRegistry,
        model: ModelId,
        next: Model,
        predictors: impl IntoIterator<Item = P>,
        config: CanaryConfig,
    ) -> Result<ModelVersion, EngineError> {
        config.validate()?;
        let Some(live) = registry.entry(&model) else {
            return Err(EngineError::UnknownModel { model });
        };
        if self.swaps.iter().any(|s| s.staged.id == model) {
            return Err(EngineError::SwapInProgress { model });
        }
        let from = live.version;
        let mut staged = ModelEntry::new(model, from + 1, next, predictors)?;
        staged.inherit(live);
        self.swaps.push(Swap {
            staged,
            from,
            config,
            seen: 0,
            routed: 0,
            matched: 0,
            max_abs_diff: 0.0,
            pending: HashMap::new(),
            decision: None,
            canary_stats: ReuseStats::new(),
            incumbent_stats: ReuseStats::new(),
        });
        Ok(from + 1)
    }

    /// Routes one request resolved against the live registry.  While an
    /// undecided swap covers its model, a request the canary rule
    /// selects runs as a pair — the staged version answers, the
    /// incumbent shadows — provided the queue has room for both halves
    /// (`pair_fits`) and the staged version serves the request's
    /// options.  Everything else runs once, on `resolved`.
    pub(crate) fn route(
        &mut self,
        options: &RequestOptions,
        resolved: Resolved,
        pair_fits: bool,
    ) -> Routed {
        let serial = self.next_serial;
        self.next_serial += 1;
        if let Some(swap) = self
            .swaps
            .iter_mut()
            .find(|s| s.staged.id == resolved.key.model && s.decision.is_none())
        {
            swap.seen += 1;
            let selected = match swap.config.rule {
                // Deterministic proportional routing: canary exactly
                // when doing so keeps routed/seen at or under the
                // fraction.
                CanaryRule::Fraction(f) => (swap.routed + 1) as f64 <= swap.seen as f64 * f as f64,
                CanaryRule::Priority(p) => options.priority == p,
            };
            if selected && pair_fits {
                if let Ok(canary) = swap.staged.resolve(options) {
                    swap.routed += 1;
                    swap.pending.insert(serial, None);
                    return Routed {
                        serial,
                        primary: canary,
                        shadow: Some(resolved),
                    };
                }
            }
        }
        Routed {
            serial,
            primary: resolved,
            shadow: None,
        }
    }

    /// Feeds in one emitted response; anything but a canary half falls
    /// straight through.  The half that completes a pair has the pair
    /// judged.  Returns the swap's decision once it is made and its last
    /// in-flight pair has landed.
    pub(crate) fn observe(
        &mut self,
        tag: ResponseTag,
        half: &InferenceResponse,
    ) -> Option<Decision> {
        let i = self
            .swaps
            .iter()
            .position(|s| s.pending.contains_key(&tag.serial))?;
        let swap = &mut self.swaps[i];
        let slot = swap.pending.get_mut(&tag.serial).expect("found above");
        let Some(first) = slot.take() else {
            *slot = Some(half.clone());
            return None;
        };
        swap.pending.remove(&tag.serial);
        if tag.shadow {
            swap.judge(&first, half);
        } else {
            swap.judge(half, &first);
        }
        match swap.decision {
            Some(outcome) if swap.pending.is_empty() => Some(Decision {
                swap: self.swaps.remove(i),
                outcome,
            }),
            _ => None,
        }
    }

    /// Applies a decision: promotion replaces the live entry in
    /// `registry` with the staged one, rollback discards the staged one,
    /// and either way the outgoing version's model is retired.  Returns
    /// the swap's report, which also waits for
    /// [`take_reports`](Lifecycle::take_reports).
    pub(crate) fn apply(
        &mut self,
        decision: Decision,
        registry: &mut ModelRegistry,
    ) -> &SwapReport {
        let Decision { swap, outcome } = decision;
        self.reports.push(SwapReport {
            model: swap.staged.id.clone(),
            from: swap.from,
            to: swap.staged.version,
            outcome,
            canaries: swap.routed,
            matched: swap.matched,
            max_abs_diff: swap.max_abs_diff,
            canary_stats: swap.canary_stats,
            incumbent_stats: swap.incumbent_stats,
        });
        match outcome {
            SwapOutcome::Promoted => registry.promote(swap.staged),
            SwapOutcome::RolledBack => swap.staged.model.retire(),
        }
        self.reports.last().expect("pushed above")
    }

    /// Discards `model`'s staged swap, if any, without a report; its
    /// halves still in flight fall through [`observe`](Lifecycle::observe).
    /// Returns the discarded entry, its model retired.
    pub(crate) fn evict(&mut self, model: &ModelId) -> Option<ModelEntry> {
        let i = self.swaps.iter().position(|s| &s.staged.id == model)?;
        let staged = self.swaps.remove(i).staged;
        staged.model.retire();
        Some(staged)
    }

    /// Progress of `model`'s staged swap, `None` when none is staged.
    pub(crate) fn status(&self, model: &ModelId) -> Option<SwapStatus> {
        self.swaps
            .iter()
            .find(|s| &s.staged.id == model)
            .map(|s| SwapStatus {
                model: model.clone(),
                from: s.from,
                to: s.staged.version,
                seen: s.seen,
                canaries: s.routed,
                matched: s.matched,
                in_flight: s.pending.len(),
                decision: s.decision,
            })
    }

    /// Takes the reports of every swap applied since the last call.
    pub(crate) fn take_reports(&mut self) -> Vec<SwapReport> {
        std::mem::take(&mut self.reports)
    }

    /// The predictor a staged version serves under `key`'s name, when
    /// `key` names a staged version.
    pub(crate) fn find_predictor(&self, key: &ContextKey) -> Option<&Arc<dyn Predictor>> {
        self.swaps.iter().find_map(|s| s.staged.predictor_for(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::CompletionStatus;
    use nfm_core::{BnnMemoConfig, PredictorKind};
    use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig};
    use nfm_tensor::rng::DeterministicRng;
    use std::time::Duration;

    fn network(seed: u64) -> DeepRnn {
        let mut rng = DeterministicRng::seed_from_u64(seed);
        DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 4, 6), &mut rng).unwrap()
    }

    /// Models "a" (the default) and "b", each exact at version 1.
    fn registry() -> ModelRegistry {
        let mut registry = ModelRegistry::new();
        registry
            .register("a", network(1), PredictorKind::Exact)
            .unwrap();
        registry
            .register("b", network(2), PredictorKind::Exact)
            .unwrap();
        registry
    }

    /// A lifecycle with version 2 of "a" staged under `config`.
    fn staged(registry: &ModelRegistry, config: CanaryConfig) -> Lifecycle {
        let mut lifecycle = Lifecycle::default();
        lifecycle
            .stage(
                registry,
                "a".into(),
                network(3).into(),
                [PredictorKind::Exact],
                config,
            )
            .unwrap();
        lifecycle
    }

    fn route(
        lifecycle: &mut Lifecycle,
        registry: &ModelRegistry,
        options: RequestOptions,
        pair_fits: bool,
    ) -> Routed {
        let resolved = registry.resolve(&options).unwrap();
        lifecycle.route(&options, resolved, pair_fits)
    }

    /// One output step per value.
    fn response(status: CompletionStatus, outputs: &[f32]) -> InferenceResponse {
        InferenceResponse {
            id: 0,
            status,
            outputs: outputs.iter().map(|&v| Vector::from(vec![v])).collect(),
            stats: ReuseStats::new(),
            queue_latency: Duration::ZERO,
            compute_latency: Duration::ZERO,
        }
    }

    fn done(outputs: &[f32]) -> InferenceResponse {
        response(CompletionStatus::Done, outputs)
    }

    /// Lands pair `serial`, canary half first; returns what landing the
    /// shadow half returned.
    fn land(
        lifecycle: &mut Lifecycle,
        serial: u64,
        canary: &InferenceResponse,
        incumbent: &InferenceResponse,
    ) -> Option<Decision> {
        let canary_tag = ResponseTag {
            serial,
            shadow: false,
        };
        assert!(lifecycle.observe(canary_tag, canary).is_none());
        let shadow_tag = ResponseTag {
            serial,
            shadow: true,
        };
        lifecycle.observe(shadow_tag, incumbent)
    }

    fn status(lifecycle: &Lifecycle) -> SwapStatus {
        lifecycle
            .status(&"a".into())
            .expect("a swap of a is staged")
    }

    #[test]
    fn fraction_routing_is_exactly_proportional() {
        let registry = registry();
        let mut lifecycle = staged(&registry, CanaryConfig::fraction(0.25));
        let mut serials = Vec::new();
        let mut pattern = Vec::new();
        for _ in 0..12 {
            let routed = route(&mut lifecycle, &registry, RequestOptions::new(), true);
            serials.push(routed.serial);
            if let Some(shadow) = &routed.shadow {
                assert_eq!((routed.primary.key.version, shadow.key.version), (2, 1));
            }
            pattern.push(u8::from(routed.shadow.is_some()));
        }
        assert_eq!(pattern, [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1]);
        serials.dedup();
        assert_eq!(serials.len(), 12, "one serial per routed request");
        // Another model's traffic is neither paired nor counted.
        let other = route(
            &mut lifecycle,
            &registry,
            RequestOptions::for_model("b"),
            true,
        );
        assert!(other.shadow.is_none());
        let s = status(&lifecycle);
        assert_eq!((s.seen, s.canaries, s.in_flight), (12, 3, 3));
    }

    #[test]
    fn the_priority_rule_pairs_exactly_its_class() {
        let registry = registry();
        let mut lifecycle = staged(&registry, CanaryConfig::priority(Priority::High));
        for priority in [
            Priority::Low,
            Priority::High,
            Priority::Normal,
            Priority::High,
        ] {
            let options = RequestOptions::new().priority(priority);
            let routed = route(&mut lifecycle, &registry, options, true);
            assert_eq!(routed.shadow.is_some(), priority == Priority::High);
        }
        let s = status(&lifecycle);
        assert_eq!((s.seen, s.canaries), (4, 2));
    }

    #[test]
    fn a_pair_needs_two_queue_slots() {
        let registry = registry();
        let mut lifecycle = staged(&registry, CanaryConfig::fraction(1.0));
        let lone = route(&mut lifecycle, &registry, RequestOptions::new(), false);
        assert!(lone.shadow.is_none());
        assert_eq!(lone.primary.key.version, 1, "the incumbent answers alone");
        let pair = route(&mut lifecycle, &registry, RequestOptions::new(), true);
        assert!(pair.shadow.is_some());
        let s = status(&lifecycle);
        assert_eq!((s.seen, s.canaries, s.in_flight), (2, 1, 1));
    }

    #[test]
    fn inconclusive_pairs_neither_promote_nor_roll_back() {
        let mut registry = registry();
        let mut lifecycle = staged(&registry, CanaryConfig::fraction(1.0).min_requests(1));
        let serials: Vec<u64> = (0..3)
            .map(|_| route(&mut lifecycle, &registry, RequestOptions::new(), true).serial)
            .collect();
        // Expired or rejected halves decide nothing, however far apart
        // the outputs are — but their counters still count.
        let expired = response(CompletionStatus::DeadlineExpired, &[]);
        let mut rejected = response(CompletionStatus::Rejected, &[9.0]);
        rejected.stats.record_computed_many(5);
        assert!(land(&mut lifecycle, serials[0], &expired, &done(&[1.0])).is_none());
        assert!(land(&mut lifecycle, serials[1], &done(&[1.0]), &rejected).is_none());
        let s = status(&lifecycle);
        assert_eq!((s.matched, s.decision, s.in_flight), (0, None, 1));
        let decision = land(&mut lifecycle, serials[2], &done(&[1.0]), &done(&[1.0]));
        let report = lifecycle.apply(decision.expect("one clean pair promotes"), &mut registry);
        assert_eq!((report.outcome, report.matched), (SwapOutcome::Promoted, 1));
        assert_eq!(report.max_abs_diff, 0.0);
        assert_eq!(report.incumbent_stats.evaluations(), 5);
    }

    #[test]
    fn the_first_comparison_out_of_tolerance_rolls_back() {
        let mut registry = registry();
        let live = registry.resolve(&RequestOptions::new()).unwrap();
        let config = CanaryConfig::fraction(1.0).min_requests(3).tolerance(0.5);
        let mut lifecycle = staged(&registry, config);
        let first = route(&mut lifecycle, &registry, RequestOptions::new(), true);
        let second = route(&mut lifecycle, &registry, RequestOptions::new(), true);
        assert!(land(&mut lifecycle, first.serial, &done(&[1.0]), &done(&[1.25])).is_none());
        assert_eq!(status(&lifecycle).matched, 1);
        let decision = land(&mut lifecycle, second.serial, &done(&[2.0]), &done(&[1.0]));
        let report = lifecycle.apply(decision.expect("decided"), &mut registry);
        assert_eq!(report.outcome, SwapOutcome::RolledBack);
        assert_eq!((report.from, report.to), (1, 2));
        assert_eq!((report.canaries, report.matched), (2, 1));
        assert_eq!(report.max_abs_diff, 1.0);
        assert_eq!(registry.version("a"), Some(1));
        assert!(first.primary.model.is_retired() && !live.model.is_retired());
        assert!(lifecycle.status(&"a".into()).is_none());
        assert_eq!(lifecycle.take_reports().len(), 1);
    }

    #[test]
    fn a_decision_waits_for_the_pairs_in_flight() {
        let mut registry = registry();
        let mut lifecycle = staged(&registry, CanaryConfig::fraction(1.0).min_requests(2));
        let serials: Vec<u64> = (0..3)
            .map(|_| route(&mut lifecycle, &registry, RequestOptions::new(), true).serial)
            .collect();
        assert!(land(&mut lifecycle, serials[0], &done(&[1.0]), &done(&[1.0])).is_none());
        // The second clean pair decides, but the third is still in
        // flight: nothing is applied yet.
        assert!(land(&mut lifecycle, serials[1], &done(&[1.0]), &done(&[1.0])).is_none());
        let s = status(&lifecycle);
        assert_eq!((s.decision, s.in_flight), (Some(SwapOutcome::Promoted), 1));
        assert_eq!(registry.version("a"), Some(1));
        // Decided requests run on the incumbent alone.
        assert!(
            route(&mut lifecycle, &registry, RequestOptions::new(), true)
                .shadow
                .is_none()
        );
        // The last pair lands — a late divergence only widens the
        // report's maximum — and the decision comes out.
        let decision = land(&mut lifecycle, serials[2], &done(&[1.0]), &done(&[4.0]));
        let report = lifecycle.apply(decision.expect("last pair landed"), &mut registry);
        assert_eq!(report.outcome, SwapOutcome::Promoted);
        assert_eq!((report.canaries, report.matched), (3, 2));
        assert_eq!(report.max_abs_diff, 3.0);
        assert_eq!(registry.version("a"), Some(2));
    }

    #[test]
    fn identical_non_finite_outputs_match_and_one_sided_ones_roll_back() {
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        for (canary, incumbent, outcome) in [
            ([nan, 1.0], [nan, 1.0], SwapOutcome::Promoted),
            ([inf, -inf], [inf, -inf], SwapOutcome::Promoted),
            ([nan, 1.0], [1.0, 1.0], SwapOutcome::RolledBack),
            ([1.0, 1.0], [1.0, inf], SwapOutcome::RolledBack),
        ] {
            let mut registry = registry();
            let mut lifecycle = staged(&registry, CanaryConfig::fraction(1.0).min_requests(1));
            let serial = route(&mut lifecycle, &registry, RequestOptions::new(), true).serial;
            let decision = land(&mut lifecycle, serial, &done(&canary), &done(&incumbent));
            let report = lifecycle.apply(decision.expect("one pair decides"), &mut registry);
            assert_eq!(report.outcome, outcome, "{canary:?} vs {incumbent:?}");
        }
    }

    #[test]
    fn evict_discards_a_staged_swap_without_a_report() {
        let registry = registry();
        let mut lifecycle = staged(&registry, CanaryConfig::fraction(1.0).min_requests(1));
        let pair = route(&mut lifecycle, &registry, RequestOptions::new(), true);
        let discarded = lifecycle.evict(&"a".into()).expect("a swap was staged");
        assert!(discarded.model.is_retired());
        assert!(lifecycle.status(&"a".into()).is_none());
        // Its halves still in flight land on nothing.
        assert!(land(&mut lifecycle, pair.serial, &done(&[1.0]), &done(&[1.0])).is_none());
        assert!(lifecycle.take_reports().is_empty());
        assert!(lifecycle.evict(&"a".into()).is_none());
    }

    #[test]
    fn stage_promote_and_rollback_manage_versions() {
        let mut registry = registry();
        let bnn = PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.5));
        registry.add_predictor("a", bnn).unwrap();
        let live = registry.resolve(&RequestOptions::new()).unwrap();
        let one = CanaryConfig::fraction(1.0).min_requests(1);
        let mut lifecycle = Lifecycle::default();
        let stage = |lifecycle: &mut Lifecycle, registry: &ModelRegistry, seed| {
            let next = network(seed).into();
            lifecycle.stage(registry, "a".into(), next, [PredictorKind::Exact], one)
        };

        // Staged v2 stays out of the registry, and blocks a second stage.
        assert_eq!(stage(&mut lifecycle, &registry, 3), Ok(2));
        assert_eq!((registry.version("a"), registry.len()), (Some(1), 2));
        assert!(matches!(
            stage(&mut lifecycle, &registry, 4),
            Err(EngineError::SwapInProgress { .. })
        ));

        // Rollback retires the staged model and leaves the live one.
        let canary = route(&mut lifecycle, &registry, RequestOptions::new(), true);
        let decision = land(&mut lifecycle, canary.serial, &done(&[1.0]), &done(&[2.0]));
        lifecycle.apply(decision.expect("decided"), &mut registry);
        assert!(canary.primary.model.is_retired() && !live.model.is_retired());
        assert_eq!(registry.version("a"), Some(1));

        // Promotion replaces v1 in place — "a" stays the default model —
        // and v2 also serves the policy it was not staged with.
        assert_eq!(stage(&mut lifecycle, &registry, 3), Ok(2));
        let canary = route(&mut lifecycle, &registry, RequestOptions::new(), true);
        let decision = land(&mut lifecycle, canary.serial, &done(&[1.0]), &done(&[1.0]));
        lifecycle.apply(decision.expect("decided"), &mut registry);
        assert_eq!(registry.version("a"), Some(2));
        assert_eq!(registry.default_model().unwrap().as_str(), "a");
        assert_eq!(registry.predictor_names("a").unwrap(), ["exact", "bnn"]);
        let resolved = registry.resolve(&RequestOptions::new()).unwrap();
        assert_eq!(resolved.key.version, 2);
        assert!(live.model.is_retired() && !resolved.model.is_retired());
    }

    #[test]
    fn stage_errors_are_typed() {
        let registry = registry();
        let mut lifecycle = Lifecycle::default();
        let exact = [PredictorKind::Exact];
        let half = CanaryConfig::fraction(0.5);
        assert!(matches!(
            lifecycle.stage(&registry, "ghost".into(), network(2).into(), exact, half),
            Err(EngineError::UnknownModel { .. })
        ));
        assert!(matches!(
            lifecycle.stage(
                &registry,
                "a".into(),
                network(2).into(),
                [PredictorKind::Exact; 0],
                half
            ),
            Err(EngineError::InvalidConfig { .. })
        ));
        assert!(matches!(
            lifecycle.stage(
                &registry,
                "a".into(),
                network(2).into(),
                exact,
                CanaryConfig::fraction(0.0)
            ),
            Err(EngineError::InvalidConfig { .. })
        ));
        assert!(matches!(
            lifecycle.stage(
                &registry,
                "a".into(),
                network(2).into(),
                [PredictorKind::Exact; 2],
                half
            ),
            Err(EngineError::DuplicatePredictor { .. })
        ));
        assert!(lifecycle.status(&"a".into()).is_none(), "nothing staged");
    }
}
