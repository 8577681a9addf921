//! A steady-state cell step allocates nothing: an LSTM and a GRU stepped
//! through `Cell::step_batch_into` at 1 and 8 lanes, under the exact
//! evaluator, the BNN memoizing evaluator, the oracle and the adaptive
//! evaluator, make no heap allocation once two warm-up steps have sized
//! every reused buffer.  The measured steps cross a `HOIST_BLOCK`
//! boundary, where the adaptive evaluator drains its audit counters into
//! its controller.
//!
//! A counting `#[global_allocator]` keeps its count per thread, so the
//! test harness's other threads (and the other tests running beside
//! this one) do not count.

use nfm::bnn::BinaryNetwork;
use nfm::memo::{
    BnnMemoConfig, BnnMemoEvaluator, ControllerConfig, OracleMemoConfig, ThresholdController,
};
use nfm::rnn::{
    BatchScratch, BatchState, Cell, CellKind, DeepRnn, ExactEvaluator, Layer, NeuronEvaluator,
    HOIST_BLOCK,
};
use nfm::tensor::kernels::matmul_into;
use nfm::tensor::rng::DeterministicRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(|n| n.get())
}

const WARM_UP: usize = 2;
const STEPS: usize = HOIST_BLOCK + WARM_UP;

/// The allocations of each of `STEPS` steps of `cell` over `lanes`
/// lanes of seeded inputs, from the zero state, with every input and
/// hoisted projection built before the first step.
fn allocations_per_step(
    cell: &Cell,
    lanes: usize,
    evaluator: &mut dyn NeuronEvaluator,
) -> Vec<u64> {
    let (input, hidden) = (cell.input_size(), cell.hidden_size());
    let mut rng = DeterministicRng::seed_from_u64(22);
    // Each step's inputs stay near the first's, so the memoizing
    // evaluators both hit and miss.
    let first: Vec<f32> = (0..lanes * input).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let xs: Vec<Vec<f32>> = (0..STEPS)
        .map(|_| first.iter().map(|x| x + rng.uniform(-0.05, 0.05)).collect())
        .collect();
    let hoisted: Vec<Vec<Vec<f32>>> = xs
        .iter()
        .map(|x| {
            let gates = cell.gates().iter().map(|gate| {
                let mut fwd = vec![0.0; lanes * hidden];
                matmul_into(gate.wx(), x, lanes, &mut fwd).unwrap();
                fwd
            });
            gates.collect()
        })
        .collect();
    let hoisted: Vec<Vec<&[f32]>> = hoisted
        .iter()
        .map(|step| step.iter().map(Vec::as_slice).collect())
        .collect();
    let mut state = BatchState::zeros(cell.kind(), lanes, hidden);
    let mut next = BatchState::zeros(cell.kind(), lanes, hidden);
    let mut scratch = BatchScratch::new();
    evaluator.begin_batch(lanes);
    for lane in 0..lanes {
        evaluator.begin_lane_sequence(lane);
    }
    let mut counts = Vec::with_capacity(STEPS);
    for t in 0..STEPS {
        let before = allocations();
        cell.step_batch_into(
            0,
            0,
            t,
            lanes,
            &xs[t],
            &state,
            &mut next,
            &mut scratch,
            &hoisted[t],
            evaluator,
        )
        .unwrap();
        let after = allocations();
        counts.push(after - before);
        std::mem::swap(&mut state, &mut next);
    }
    counts
}

#[test]
fn the_allocator_counts_this_threads_allocations() {
    let before = allocations();
    drop(std::hint::black_box(Vec::<u8>::with_capacity(16)));
    assert_eq!(allocations() - before, 1);
}

#[test]
fn a_steady_state_cell_step_allocates_nothing() {
    let mut rng = DeterministicRng::seed_from_u64(5);
    for kind in [CellKind::Lstm, CellKind::Gru] {
        let cell = Cell::random(kind, 6, 16, true, &mut rng).unwrap();
        let net = DeepRnn::new(vec![Layer::new(0, cell.clone(), None).unwrap()], None).unwrap();
        let mirror = Arc::new(BinaryNetwork::mirror(&net));
        for lanes in [1, 8] {
            let check = |name: &str, counts: Vec<u64>| {
                assert!(
                    counts[WARM_UP..].iter().all(|&n| n == 0),
                    "{kind:?} at {lanes} lanes under {name}: allocations per step {counts:?}"
                );
            };
            check(
                "exact",
                allocations_per_step(&cell, lanes, &mut ExactEvaluator::new()),
            );
            let bnn = BnnMemoEvaluator::new(mirror.clone(), BnnMemoConfig::with_threshold(1.0));
            let oracle = BnnMemoEvaluator::oracle(OracleMemoConfig::with_threshold(0.5));
            // Audits every other hit, so each block's sync has audits to
            // observe.
            let config = ControllerConfig::new(0.1)
                .initial_theta(1.0)
                .audit_period(2);
            let controller = Arc::new(ThresholdController::new(1, config));
            let adaptive = BnnMemoEvaluator::adaptive(mirror.clone(), controller.clone());
            for (name, mut memo) in [("bnn", bnn), ("oracle", oracle), ("adaptive", adaptive)] {
                check(name, allocations_per_step(&cell, lanes, &mut memo));
                let stats = memo.stats();
                assert!(
                    stats.reuses() > 0 && stats.computed() > 0,
                    "{kind:?} at {lanes} lanes under {name}: the steps should hit and miss"
                );
            }
            assert!(
                controller.snapshot().audit.audited() > 0,
                "{kind:?} at {lanes} lanes: the block boundary should sync audits"
            );
        }
    }
}
