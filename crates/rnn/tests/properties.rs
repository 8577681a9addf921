//! Property-style tests on RNN inference invariants, exercised over
//! seeded deterministic sampling loops (the container has no `proptest`).

use nfm_rnn::{Cell, CellKind, DeepRnn, DeepRnnConfig, Direction, ExactEvaluator, Layer};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;

fn sequence(len: usize, width: usize, seed: u64) -> Vec<Vector> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Vector::from_fn(width, |_| rng.uniform(-1.5, 1.5)))
        .collect()
}

/// A one-layer network of `cell`, no head: its outputs are `h_t`.
fn one_layer(cell: Cell) -> DeepRnn {
    DeepRnn::new(vec![Layer::new(0, cell, None).unwrap()], None).unwrap()
}

#[test]
fn gru_hidden_state_is_a_convex_combination() {
    let mut outer = DeterministicRng::seed_from_u64(10);
    for _ in 0..24 {
        let seed = outer.index(500) as u64;
        let steps = 1 + outer.index(9);
        // h_t is elementwise between h_{t-1} and tanh(...) in [-1, 1], so
        // it can never leave [-1, 1].
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let net = one_layer(Cell::random(CellKind::Gru, 5, 7, false, &mut rng).unwrap());
        let outputs = net
            .run(
                &sequence(steps, 5, seed ^ 0xABC),
                &mut ExactEvaluator::new(),
            )
            .unwrap();
        assert_eq!(outputs.len(), steps);
        for h in outputs {
            assert!(h.norm_inf() <= 1.0 + 1e-5);
        }
    }
}

#[test]
fn lstm_hidden_output_is_bounded_by_one() {
    let mut outer = DeterministicRng::seed_from_u64(11);
    for _ in 0..24 {
        let seed = outer.index(500) as u64;
        let steps = 1 + outer.index(9);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let net = one_layer(Cell::random(CellKind::Lstm, 4, 6, true, &mut rng).unwrap());
        let outputs = net
            .run(
                &sequence(steps, 4, seed ^ 0xDEF),
                &mut ExactEvaluator::new(),
            )
            .unwrap();
        assert_eq!(outputs.len(), steps);
        for h in outputs {
            assert!(h.norm_inf() <= 1.0 + 1e-5);
            assert!(h.iter().all(|v| v.is_finite()));
        }
    }
}

#[test]
fn inference_is_deterministic_and_counts_are_exact() {
    let mut outer = DeterministicRng::seed_from_u64(12);
    for _ in 0..24 {
        let seed = outer.index(300) as u64;
        let layers = 1 + outer.index(2);
        let steps = 1 + outer.index(5);
        let bidirectional = outer.coin(0.5);
        let direction = if bidirectional {
            Direction::Bidirectional
        } else {
            Direction::Unidirectional
        };
        let cfg = DeepRnnConfig::new(CellKind::Lstm, 4, 5)
            .layers(layers)
            .direction(direction);
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let seq = sequence(steps, 4, seed ^ 0x123);
        let mut e1 = ExactEvaluator::new();
        let mut e2 = ExactEvaluator::new();
        let a = net.run(&seq, &mut e1).unwrap();
        let b = net.run(&seq, &mut e2).unwrap();
        assert_eq!(a, b);
        assert_eq!(e1.evaluations(), e2.evaluations());
        assert_eq!(
            e1.evaluations() as usize,
            steps * net.neuron_evaluations_per_step()
        );
    }
}

#[test]
fn output_width_matches_configuration() {
    let mut outer = DeterministicRng::seed_from_u64(13);
    for _ in 0..24 {
        let seed = outer.index(200) as u64;
        let hidden = 2 + outer.index(6);
        let head = if outer.coin(0.5) {
            Some(1 + outer.index(4))
        } else {
            None
        };
        let bidirectional = outer.coin(0.5);
        let direction = if bidirectional {
            Direction::Bidirectional
        } else {
            Direction::Unidirectional
        };
        let mut cfg = DeepRnnConfig::new(CellKind::Gru, 3, hidden).direction(direction);
        if let Some(h) = head {
            cfg = cfg.output_size(h);
        }
        let mut rng = DeterministicRng::seed_from_u64(seed);
        let net = DeepRnn::random(&cfg, &mut rng).unwrap();
        let out = net
            .run(&sequence(3, 3, seed), &mut ExactEvaluator::new())
            .unwrap();
        let expected = match head {
            Some(h) => h,
            None => hidden * direction.cells_per_layer(),
        };
        assert!(out.iter().all(|v| v.len() == expected));
    }
}
