//! `nfm-serve`'s unit tests through its public surface: the request
//! and option builders, response latency, and the engine's completion
//! notifier.

use nfm_core::ReuseStats;
use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig};
use nfm_serve::{
    CanaryConfig, CompletionStatus, Engine, EngineBuilder, InferenceRequest, InferenceResponse,
    PredictorKind, Priority, RequestOptions,
};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn request_builder_sets_deadline() {
    let r = InferenceRequest::new(7, vec![Vector::zeros(2)]);
    assert_eq!(r.id, 7);
    assert!(r.deadline.is_none());
    assert_eq!(r.options, RequestOptions::default());
    let r = r.with_deadline(Duration::from_millis(5));
    assert_eq!(r.deadline, Some(Duration::from_millis(5)));
}

#[test]
fn with_options_replaces_all_options_at_once() {
    let r = InferenceRequest::new(1, vec![Vector::zeros(2)]).with_options(
        RequestOptions::for_model("asr")
            .predictor("bnn")
            .threshold(0.25)
            .priority(Priority::High),
    );
    assert_eq!(r.options.model, Some("asr".into()));
    assert_eq!(r.options.predictor.as_deref(), Some("bnn"));
    assert_eq!(r.options.threshold, Some(0.25));
    assert_eq!(r.options.priority, Priority::High);
    let r = r.with_options(RequestOptions::default().model("kws"));
    assert_eq!(r.options.model, Some("kws".into()));
    assert!(r.options.predictor.is_none());
    assert_eq!(r.options.priority, Priority::Normal);
}

#[test]
fn options_fluent_builder_composes() {
    let o = RequestOptions::for_model("kws")
        .predictor("bnn")
        .threshold(0.4)
        .priority(Priority::High);
    assert_eq!(o.model, Some("kws".into()));
    assert_eq!(o.predictor.as_deref(), Some("bnn"));
    assert_eq!(o.threshold, Some(0.4));
    assert_eq!(o.priority, Priority::High);
    assert_eq!(RequestOptions::new(), RequestOptions::default());
}

#[test]
fn priority_orders_high_first() {
    assert_eq!(Priority::default(), Priority::Normal);
    assert!(Priority::High < Priority::Normal);
    assert!(Priority::Normal < Priority::Low);
    assert_eq!(
        Priority::ALL,
        [Priority::High, Priority::Normal, Priority::Low],
        "every class once, in drain order"
    );
}

#[test]
fn response_latency_sums() {
    let r = InferenceResponse {
        id: 1,
        status: CompletionStatus::Done,
        outputs: Vec::new(),
        stats: ReuseStats::new(),
        queue_latency: Duration::from_millis(2),
        compute_latency: Duration::from_millis(3),
    };
    assert!(r.is_done());
    assert_eq!(r.total_latency(), Duration::from_millis(5));
}

struct Tiny {
    net: DeepRnn,
    seqs: Vec<Vec<Vector>>,
}

/// `sequences` smooth random walks of `len` steps over a one-layer
/// LSTM, each scaled slightly differently so they are distinct.
fn workload(sequences: usize, len: usize) -> Tiny {
    let mut rng = DeterministicRng::seed_from_u64(17);
    let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 5, 8), &mut rng).unwrap();
    let seqs = (0..sequences)
        .map(|i| {
            let mut x = Vector::from_fn(5, |_| rng.uniform(-0.5, 0.5));
            (0..len)
                .map(|_| {
                    x = x
                        .add(&Vector::from_fn(5, |_| rng.uniform(-0.05, 0.05)))
                        .unwrap();
                    x.scale(1.0 + 0.01 * i as f32)
                })
                .collect()
        })
        .collect();
    Tiny { net, seqs }
}

/// A paused one-worker engine over `w`'s network.
fn paused_engine(w: &Tiny) -> Engine {
    EngineBuilder::new(w.net.clone(), PredictorKind::Exact)
        .workers(1)
        .start_paused()
        .build()
        .unwrap()
}

/// Registers a notifier on `engine` that counts its calls.
fn count_notifications(engine: &Engine) -> Arc<AtomicUsize> {
    let calls = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&calls);
    engine.set_completion_notifier(move || {
        counter.fetch_add(1, Ordering::SeqCst);
    });
    calls
}

fn requests(w: &Tiny) -> impl Iterator<Item = InferenceRequest> + '_ {
    (w.seqs.iter().enumerate()).map(|(id, seq)| InferenceRequest::new(id as u64, seq.clone()))
}

fn sorted(mut responses: Vec<InferenceResponse>) -> Vec<InferenceResponse> {
    responses.sort_by_key(|r| r.id);
    responses
}

/// `drain` returns only once the worker has parked, which is after the
/// emission that notified returned, so the counts below are exact.
#[test]
fn the_completion_notifier_fires_once_per_emptied_response_list() {
    let w = workload(3, 6);
    let engine = paused_engine(&w);
    let calls = count_notifications(&engine);
    engine.submit_all(requests(&w)).unwrap();
    let notified = sorted(engine.drain());
    assert_eq!(notified.len(), 3);
    // The first response lands in an empty list; the other two find
    // it still waiting.
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    engine.submit_all(requests(&w)).unwrap();
    assert_eq!(engine.drain().len(), 3);
    assert_eq!(calls.load(Ordering::SeqCst), 2);

    // An engine with no notifier answers exactly the same.
    let plain = paused_engine(&w);
    plain.submit_all(requests(&w)).unwrap();
    let plain = sorted(plain.drain());
    for (a, b) in notified.iter().zip(&plain) {
        assert_eq!((a.id, &a.outputs, &a.stats), (b.id, &b.outputs, &b.stats));
    }
}

#[test]
fn a_shadow_half_landing_before_its_primary_does_not_notify() {
    let w = workload(3, 6);
    let engine = paused_engine(&w);
    // Serving one request first creates the incumbent's context before
    // the staged one; the worker steps contexts in creation order, so
    // each shadow half lands first, into an empty list.
    engine.submit(requests(&w).next().unwrap()).unwrap();
    assert_eq!(engine.drain().len(), 1);
    // Every request runs as a pair; the swap never decides.
    engine
        .swap_model(
            nfm_serve::DEFAULT_MODEL,
            w.net.clone(),
            [PredictorKind::Exact],
            CanaryConfig::fraction(1.0).min_requests(1000),
        )
        .unwrap();
    let calls = count_notifications(&engine);
    for round in 1..=3 {
        engine.submit(requests(&w).next().unwrap()).unwrap();
        assert_eq!(engine.drain().len(), 1);
        assert_eq!(calls.load(Ordering::SeqCst), round);
    }
    let status = engine.swap_status(nfm_serve::DEFAULT_MODEL).unwrap();
    assert_eq!((status.canaries, status.matched), (3, 3));
}

/// A taker that empties the list at every notification, as the net
/// server does, also hears from a shadow half that lands last: it leaves
/// nothing pending, which a taker waiting for the engine to empty needs
/// to know.  The notifier runs on the worker before it emits again, so
/// the counts are exact.
#[test]
fn a_shadow_half_that_leaves_the_engine_empty_notifies() {
    let w = workload(3, 6);
    let engine = Arc::new(paused_engine(&w));
    // Staged before anything ran, the canary's context is created and
    // stepped first, so each shadow half lands after its primary.
    engine
        .swap_model(
            nfm_serve::DEFAULT_MODEL,
            w.net.clone(),
            [PredictorKind::Exact],
            CanaryConfig::fraction(1.0).min_requests(1000),
        )
        .unwrap();
    let (calls, taken) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let (c, t) = (Arc::clone(&calls), Arc::clone(&taken));
    let taker = Arc::downgrade(&engine);
    engine.set_completion_notifier(move || {
        c.fetch_add(1, Ordering::SeqCst);
        if let Some(engine) = taker.upgrade() {
            t.fetch_add(engine.take_completed().len(), Ordering::SeqCst);
        }
    });
    for round in 1..=3 {
        engine.submit(requests(&w).next().unwrap()).unwrap();
        assert!(engine.drain().is_empty());
        let counts = (calls.load(Ordering::SeqCst), taken.load(Ordering::SeqCst));
        assert_eq!(counts, (2 * round, round));
    }
}
