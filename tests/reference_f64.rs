//! The exact `f32` path against the independent `f64` reference
//! (`nfm::eval::reference`): hand-checked golden steps that pin the
//! reference itself (and this repo's gate conventions), then the error
//! budget of whole stacks.
//!
//! Within a build every path and kernel tier is bit-identical (the
//! equivalence suites); this file is the other half of the numeric
//! contract.  CI's `kernel-matrix` job runs it once per tier.

use nfm::eval::reference::{gru_step, layer_errors, lstm_step, run_layers, BUDGET_MAX_ABS};
use nfm::rnn::{
    BatchScratch, BatchState, Cell, CellKind, DeepRnn, DeepRnnConfig, Direction, ExactEvaluator,
    Gate,
};
use nfm::tensor::activation::Activation;
use nfm::tensor::kernels::matmul_into;
use nfm::tensor::rng::DeterministicRng;
use nfm::tensor::{Matrix, Vector};

fn gate(wx: &[&[f32]], wh: &[&[f32]], bias: &[f32], peephole: Option<&[f32]>, tanh: bool) -> Gate {
    let rows = |m: &[&[f32]]| Matrix::from_rows(m.iter().map(|r| r.to_vec()).collect()).unwrap();
    let activation = if tanh {
        Activation::Tanh
    } else {
        Activation::Sigmoid
    };
    Gate::new(
        rows(wx),
        rows(wh),
        Vector::from(bias.to_vec()),
        peephole.map(|p| Vector::from(p.to_vec())),
        activation,
    )
    .unwrap()
}

fn assert_close(got: &[f64], want: &[f64], tolerance: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (g, w) in got.iter().zip(want) {
        assert!((g - w).abs() <= tolerance, "{what}: got {g}, want {w}");
    }
}

fn to64(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&v| f64::from(v)).collect()
}

/// One `f32` step of `cell` on one lane from the state `(h, c)` (`c`
/// unused by a GRU): the start state goes in through the one-lane
/// prefixes of [`BatchState`], the hoisted half `W_x·x` through
/// `matmul_into` at one lane, as the layer driver hands them over.
fn f32_step(cell: &Cell, x: &[f32], h: &[f32], c: &[f32]) -> BatchState {
    let hidden = cell.hidden_size();
    let mut state = BatchState::zeros(cell.kind(), 1, hidden);
    state.h_prefix_mut(1).copy_from_slice(h);
    state.c_prefix_mut(1).copy_from_slice(c);
    let hoisted: Vec<Vec<f32>> = cell
        .gate_kinds()
        .iter()
        .map(|&kind| {
            let mut fwd = vec![0.0; hidden];
            matmul_into(cell.gate(kind).unwrap().wx(), x, 1, &mut fwd).unwrap();
            fwd
        })
        .collect();
    let hoisted: Vec<&[f32]> = hoisted.iter().map(Vec::as_slice).collect();
    let mut next = BatchState::zeros(cell.kind(), 1, hidden);
    let (out, s, e) = (
        &mut next,
        &mut BatchScratch::new(),
        &mut ExactEvaluator::new(),
    );
    cell.step_batch_into(0, 0, 0, 1, x, &state, out, s, &hoisted, e)
        .unwrap();
    next
}

/// Checks a golden LSTM step against both the reference (to `1e-12`)
/// and the `f32` cell (to the budget).
fn check_lstm(cell: Cell, x: &[f32], h: &[f32], c: &[f32], want_h: &[f64], want_c: &[f64]) {
    let (h_ref, c_ref) = lstm_step(&cell, &to64(x), &to64(h), &to64(c));
    assert_close(&h_ref, want_h, 1e-12, "reference h_t");
    assert_close(&c_ref, want_c, 1e-12, "reference c_t");
    let next = f32_step(&cell, x, h, c);
    assert_close(&to64(next.h_prefix(1)), want_h, BUDGET_MAX_ABS, "f32 h_t");
    assert_close(&to64(next.c_prefix(1)), want_c, BUDGET_MAX_ABS, "f32 c_t");
}

#[test]
fn golden_one_neuron_lstm_step() {
    // x = 1, h = 0.5, c = 0.25.
    //   i = σ(0.5·1 − 1·0.5 + 2·0.25 + 0)    = σ(0.5)  = 0.622459331201855
    //   f = σ(1·1 + 1·0.5 + 0·0.25 − 0.5)    = σ(1)    = 0.731058578630005
    //   g = tanh(−1·1 + 2·0.5 + 0.25)        = tanh(¼) = 0.244918662403709
    //   o = σ(0·1 + 0·0.5 − 4·0.25 + 0)      = σ(−1)   = 0.268941421369995
    //   c' = f·c + i·g = 0.182764644657501 + 0.152451906798666 = 0.335216551456167
    //   h' = o·tanh(c') = 0.268941421369995 · 0.323199600463733 = 0.086921938067907
    // The output gate reads c (not c'): with c' it would be
    // σ(−4·0.3352…)·tanh(c') = 0.0670…, which this vector rejects.
    let cell = Cell::new(
        CellKind::Lstm,
        vec![
            gate(&[&[0.5]], &[&[-1.0]], &[0.0], Some(&[2.0]), false),
            gate(&[&[1.0]], &[&[1.0]], &[-0.5], Some(&[0.0]), false),
            gate(&[&[-1.0]], &[&[2.0]], &[0.25], None, true),
            gate(&[&[0.0]], &[&[0.0]], &[0.0], Some(&[-4.0]), false),
        ],
    )
    .unwrap();
    check_lstm(
        cell,
        &[1.0],
        &[0.5],
        &[0.25],
        &[0.086_921_938_067_906_9],
        &[0.335_216_551_456_166_8],
    );
}

#[test]
fn golden_two_neuron_lstm_step() {
    // x = 2, h = (1, −1), c = (0.5, −0.5); recurrent rows mix both units.
    //   i: (0.5·2 + 1 − 1 + 0.5, −0.5·2 + 1 + 1 − 0.5) = (1.5, 0.5)
    //        → σ = (0.817574476193644, 0.622459331201855)
    //   f: (1 + 2·0.5, −1 + 2·(−0.5)) = (2, −2)
    //        → σ = (0.880797077977882, 0.119202922022118)
    //   g: (0.25·2 + h₁, 0.5·2 + h₀) = (−0.5, 2)
    //        → tanh = (−0.462117157260010, 0.964027580075817)
    //   o: (2 + 0.5·1 − 0.5, −2 + 0.5·(−1) − 0.5) = (2, −3)
    //        → σ = (0.880797077977882, 0.047425873177567)
    //   c' = f⊙c + i⊙g = (0.440398538988941 − 0.377815192786948,
    //                      −0.059601461011059 + 0.600067962754135)
    //      = (0.062583346201993, 0.540466501743077)
    //   h' = o⊙tanh(c') = (0.055051374439887, 0.023397128171312)
    let cell = Cell::new(
        CellKind::Lstm,
        vec![
            gate(
                &[&[0.5], &[-0.5]],
                &[&[1.0, 1.0], &[1.0, -1.0]],
                &[0.0, 0.0],
                Some(&[1.0, 1.0]),
                false,
            ),
            gate(
                &[&[0.0], &[0.0]],
                &[&[0.0, 0.0], &[0.0, 0.0]],
                &[1.0, -1.0],
                Some(&[2.0, 2.0]),
                false,
            ),
            gate(
                &[&[0.25], &[0.5]],
                &[&[0.0, 1.0], &[1.0, 0.0]],
                &[0.0, 0.0],
                None,
                true,
            ),
            gate(
                &[&[1.0], &[-1.0]],
                &[&[0.5, 0.0], &[0.0, 0.5]],
                &[0.0, 0.0],
                Some(&[-1.0, 1.0]),
                false,
            ),
        ],
    )
    .unwrap();
    check_lstm(
        cell,
        &[2.0],
        &[1.0, -1.0],
        &[0.5, -0.5],
        &[0.055_051_374_439_887_48, 0.023_397_128_171_311_544],
        &[0.062_583_346_201_993_07, 0.540_466_501_743_076_5],
    );
}

#[test]
fn golden_two_neuron_gru_step() {
    // x = (1, −1), h = (0.5, −0.5).
    //   z = σ(x) = (0.731058578630005, 0.268941421369995)
    //   r = σ(2h + (0, 1)) = σ((1, 0)) = (0.731058578630005, 0.5)
    //   r⊙h = (0.365529289315002, −0.25)
    //   g = tanh(0.5·1 + 0.5·(−1) + (r⊙h)₀ + (r⊙h)₁, 1·1 − 2·(r⊙h)₁)
    //     = tanh((0.115529289315002, 1.5)) = (0.115018028214922, 0.905148253644866)
    //   h' = (1 − z)⊙h + z⊙g = (0.134470710684998 + 0.084084916223627,
    //                            −0.365529289315002 + 0.243431857885819)
    //      = (0.218555626908625, −0.122097431429183)
    // The reset gate scales h *before* W_h (Cho et al.); scaling W_h·h
    // instead would give h'₀ = 0.1344…, which this vector rejects.
    let cell = Cell::new(
        CellKind::Gru,
        vec![
            gate(
                &[&[1.0, 0.0], &[0.0, 1.0]],
                &[&[0.0, 0.0], &[0.0, 0.0]],
                &[0.0, 0.0],
                None,
                false,
            ),
            gate(
                &[&[0.0, 0.0], &[0.0, 0.0]],
                &[&[2.0, 0.0], &[0.0, 2.0]],
                &[0.0, 1.0],
                None,
                false,
            ),
            gate(
                &[&[0.5, 0.5], &[1.0, 0.0]],
                &[&[1.0, 1.0], &[0.0, -2.0]],
                &[0.0, 0.0],
                None,
                true,
            ),
        ],
    )
    .unwrap();
    let want = [0.218_555_626_908_624_5, -0.122_097_431_429_183_22];
    let h_ref = gru_step(&cell, &[1.0, -1.0], &[0.5, -0.5]);
    assert_close(&h_ref, &want, 1e-12, "reference h_t");
    let next = f32_step(&cell, &[1.0, -1.0], &[0.5, -0.5], &[]);
    assert_close(&to64(next.h_prefix(1)), &want, BUDGET_MAX_ABS, "f32 h_t");
}

#[test]
fn whole_stacks_stay_inside_the_printed_error_budget() {
    // Measured max-abs error at the worst layer (identical on the
    // scalar, avx2 and avx512 tiers, which are bit-identical):
    //   LSTM 1x64 with peepholes, 96 steps   1.49e-7
    //   GRU 1x64, 96 steps                   2.13e-7
    //   bidirectional LSTM 2x32, 64 steps    2.09e-7
    //   LSTM 5x48, 96 steps                  1.33e-7
    //   GRU 5x48, 64 steps                   2.09e-7
    // BUDGET_MAX_ABS (8e-7, what `nfm-eval reference` prints) is under
    // 4x the largest of them.
    let shapes = [
        (CellKind::Lstm, Direction::Unidirectional, 1, 64, 96),
        (CellKind::Gru, Direction::Unidirectional, 1, 64, 96),
        (CellKind::Lstm, Direction::Bidirectional, 2, 32, 64),
        (CellKind::Lstm, Direction::Unidirectional, 5, 48, 96),
        (CellKind::Gru, Direction::Unidirectional, 5, 48, 64),
    ];
    for (seed, (cell, direction, layers, hidden, steps)) in shapes.into_iter().enumerate() {
        let mut rng = DeterministicRng::seed_from_u64(160 + seed as u64);
        let config = DeepRnnConfig::new(cell, 24, hidden)
            .layers(layers)
            .direction(direction)
            .peepholes(true);
        let net = DeepRnn::random(&config, &mut rng).unwrap();
        let sequence: Vec<Vector> = (0..steps)
            .map(|_| Vector::from_fn(24, |_| rng.uniform(-2.0, 2.0)))
            .collect();
        let errors = layer_errors(&net, &sequence).unwrap();
        assert_eq!(errors.len(), layers);
        for (k, e) in errors.iter().enumerate() {
            println!(
                "{cell:?} {direction:?} {layers}x{hidden} layer {k}: max {:.3e} mean {:.3e}",
                e.max_abs, e.mean_abs
            );
            assert!(e.mean_abs <= e.max_abs);
            assert!(
                e.max_abs <= BUDGET_MAX_ABS,
                "{cell:?} {direction:?} {layers}x{hidden} layer {k}: max-abs error {:e} \
                 exceeds the budget {BUDGET_MAX_ABS:e}",
                e.max_abs
            );
        }
    }
}

#[test]
fn ragged_lanes_of_a_bidirectional_stack_stay_inside_the_budget() {
    // The stack has one driver, which is therefore its own batched
    // reference; the independent one has to reach it.  Four lanes of
    // 1 / 8 / 9 / 17 steps (below, at, and across one and two block
    // boundaries) through `run_batch`, backward halves and head
    // included.  Measured max-abs error per lane (every tier): LSTM
    // 2.0e-8 / 7.8e-8 / 7.6e-8 / 6.8e-8, GRU 7.9e-8 / 1.5e-7 / 1.7e-7 /
    // 2.0e-7.
    for (seed, cell) in [CellKind::Lstm, CellKind::Gru].into_iter().enumerate() {
        let mut rng = DeterministicRng::seed_from_u64(190 + seed as u64);
        let config = DeepRnnConfig::new(cell, 24, 32)
            .layers(2)
            .direction(Direction::Bidirectional)
            .peepholes(true)
            .output_size(10);
        let net = DeepRnn::random(&config, &mut rng).unwrap();
        let head = net.head().expect("configured with a head");
        let lanes: Vec<Vec<Vector>> = [1usize, 8, 9, 17]
            .iter()
            .map(|&steps| {
                (0..steps)
                    .map(|_| Vector::from_fn(24, |_| rng.uniform(-2.0, 2.0)))
                    .collect()
            })
            .collect();
        let refs: Vec<&[Vector]> = lanes.iter().map(Vec::as_slice).collect();
        let got = net.run_batch(&refs, &mut ExactEvaluator::new()).unwrap();
        for (lane, out) in lanes.iter().zip(&got) {
            let hidden = run_layers(&net, lane).pop().expect("two layers");
            assert_eq!(out.len(), hidden.len());
            let mut max_abs = 0.0f64;
            for (y, h) in out.iter().zip(&hidden) {
                for n in 0..head.output_size() {
                    let want = h
                        .iter()
                        .enumerate()
                        .fold(f64::from(head.bias()[n]), |sum, (k, h)| {
                            sum + f64::from(head.weights().get(n, k)) * h
                        });
                    let d = (f64::from(y[n]) - want).abs();
                    // Not `f64::max`, which would swallow a NaN output.
                    if d > max_abs || d.is_nan() {
                        max_abs = d;
                    }
                }
            }
            println!("{cell:?} lane of {} steps: max {max_abs:.3e}", lane.len());
            assert!(
                max_abs <= BUDGET_MAX_ABS,
                "{cell:?} lane of {} steps: max-abs error {max_abs:e} exceeds {BUDGET_MAX_ABS:e}",
                lane.len()
            );
        }
    }
}
