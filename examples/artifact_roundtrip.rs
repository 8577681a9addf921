//! Cross-process model-artifact round trip.
//!
//! Two modes, driven by CI's kernel-matrix job:
//!
//! * `save <path>` — build the deterministic demo network, write it
//!   (plus its prebuilt BNN mirror) as a versioned artifact, then run
//!   memoized inference from the in-memory weights and print every
//!   output as IEEE-754 bit patterns.
//! * `load <path>` — load the artifact back (each tensor read into its
//!   own buffer),
//!   run the identical inference from the *loaded* weights, and print
//!   the same lines.
//!
//! CI saves under `NFM_KERNEL_BACKEND=scalar` and loads under the
//! matrix backend, then diffs the two transcripts: the artifact
//! round-trip and the kernel dispatch tier must both be bit-exact, so
//! the outputs are required to be byte-for-byte identical.

use std::env;
use std::fs;
use std::process::ExitCode;

use nfm::bnn::BinaryNetwork;
use nfm::memo::BnnMemoConfig;
use nfm::model::{load_from_slice, save_to_vec};
use nfm::rnn::{CellKind, DeepRnn, DeepRnnConfig};
use nfm::serve::{Engine, EngineBuilder, InferenceRequest, ModelRegistry, PredictorKind};
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::Vector;

const FEATURES: usize = 6;
const HIDDEN: usize = 10;
const SEQUENCES: usize = 4;
const SEQUENCE_LEN: usize = 12;

fn demo_network() -> DeepRnn {
    let mut rng = DeterministicRng::seed_from_u64(0x5eed);
    DeepRnn::random(
        &DeepRnnConfig::new(CellKind::Gru, FEATURES, HIDDEN),
        &mut rng,
    )
    .expect("demo network builds")
}

fn demo_sequences() -> Vec<Vec<Vector>> {
    let mut rng = DeterministicRng::seed_from_u64(0xfeed);
    (0..SEQUENCES)
        .map(|_| {
            (0..SEQUENCE_LEN)
                .map(|_| Vector::from_fn(FEATURES, |_| rng.uniform(-1.0, 1.0)))
                .collect()
        })
        .collect()
}

/// Run every demo sequence through a single-worker memoizing engine
/// built on `net` and print each output vector as hex bit patterns.
/// One worker keeps execution order (and therefore memo state)
/// deterministic, so the transcript is stable across runs.
fn run_and_print(net: DeepRnn) {
    let mut registry = ModelRegistry::new();
    registry
        .register("demo", net, PredictorKind::Exact)
        .expect("register");
    registry
        .add_predictor(
            "demo",
            PredictorKind::Bnn(BnnMemoConfig::with_threshold(0.25)),
        )
        .expect("add bnn predictor");
    let engine: Engine = EngineBuilder::from_registry(registry)
        .workers(1)
        .build()
        .expect("engine builds");

    for (i, seq) in demo_sequences().into_iter().enumerate() {
        engine
            .submit(InferenceRequest::new(i as u64, seq))
            .expect("submit");
    }
    let mut responses = engine.drain();
    responses.sort_by_key(|r| r.id);
    for r in &responses {
        let last = r.outputs.last().expect("nonempty output");
        let bits: Vec<String> = last
            .as_slice()
            .iter()
            .map(|v| format!("{:08x}", v.to_bits()))
            .collect();
        println!("id={} out={}", r.id, bits.join(","));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (mode, path) = match args.as_slice() {
        [mode, path] if mode == "save" || mode == "load" => (mode.as_str(), path.as_str()),
        _ => {
            eprintln!("usage: artifact_roundtrip <save|load> <path>");
            return ExitCode::FAILURE;
        }
    };

    match mode {
        "save" => {
            let net = demo_network();
            let mirror = BinaryNetwork::mirror(&net);
            let bytes = save_to_vec(&net, Some(&mirror)).expect("artifact encodes");
            fs::write(path, &bytes).expect("artifact writes");
            eprintln!("saved {} artifact bytes to {path}", bytes.len());
            run_and_print(net);
        }
        "load" => {
            let bytes = fs::read(path).expect("artifact reads");
            let loaded = load_from_slice(&bytes).expect("artifact decodes");
            assert!(loaded.mirror.is_some(), "artifact carries the BNN mirror");
            assert_eq!(loaded.network, demo_network(), "weights round-trip exactly");
            eprintln!("loaded {} artifact bytes from {path}", bytes.len());
            run_and_print(loaded.network);
        }
        _ => unreachable!(),
    }
    ExitCode::SUCCESS
}
