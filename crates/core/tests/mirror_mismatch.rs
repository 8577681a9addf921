//! A mirror that does not fit the network it is run against must cost
//! reuse, never a panic: the evaluator falls back to exact evaluation
//! for every gate whose mirror has another shape.

use nfm_bnn::{BinaryGate, BinaryNetwork};
use nfm_core::{BnnMemoConfig, BnnMemoEvaluator};
use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, ExactEvaluator, Gate};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;

#[test]
fn mirror_with_wrong_neuron_count_falls_back_to_exact() {
    let mut rng = DeterministicRng::seed_from_u64(31);
    let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 5, 8), &mut rng).unwrap();
    // Every mirror gate has its gate's widths but twice (then half) the
    // neurons: the widths-only check used to let these through, and the
    // predict pass then indexed `yb` past the gate's rows.
    for scale in [2.0, 0.5] {
        let gates = net
            .gates()
            .into_iter()
            .map(|(id, gate)| {
                let neurons = (gate.neurons() as f32 * scale) as usize;
                let (isz, hsz) = (gate.input_size(), gate.hidden_size());
                let other = Gate::random(neurons, isz, hsz, gate.activation(), false, &mut rng);
                (id, BinaryGate::mirror(&other.unwrap()))
            })
            .collect();
        let mirror = std::sync::Arc::new(BinaryNetwork::from_gates(gates));
        let seqs: Vec<Vec<Vector>> = [6usize, 4]
            .iter()
            .map(|&len| {
                (0..len)
                    .map(|_| Vector::from_fn(5, |_| rng.uniform(-1.0, 1.0)))
                    .collect()
            })
            .collect();
        let lanes: Vec<&[Vector]> = seqs.iter().map(Vec::as_slice).collect();
        let exact = net.run_batch(&lanes, &mut ExactEvaluator::new()).unwrap();

        let config = BnnMemoConfig::with_threshold(4.0);
        let mut memo = BnnMemoEvaluator::new(mirror, config);
        assert_eq!(net.run_batch(&lanes, &mut memo).unwrap(), exact);
        let evaluations = (10 * net.neuron_evaluations_per_step()) as u64;
        assert_eq!(memo.stats().computed(), evaluations);
        assert_eq!(memo.stats().reuses(), 0);
        assert_eq!(memo.stats().bnn_evaluations(), 0);
    }
}
