//! Every operand a kernel streams starts on a 64-byte cache line: weight
//! matrices and the BNN mirror's sign blocks, built or loaded from an
//! artifact (each in a buffer of its own), and the lane-striped
//! recurrent state.  A 64-byte load from a misaligned base straddles two
//! lines.

use nfm::bnn::BinaryNetwork;
use nfm::rnn::{BatchState, CellKind, DeepRnn, DeepRnnConfig};
use nfm::tensor::rng::DeterministicRng;
use nfm::workloads::{NetworkId, WorkloadBuilder};

/// Bytes in a cache line.
const LINE_BYTES: usize = 64;

fn on_a_line<T>(slice: &[T]) -> bool {
    (slice.as_ptr() as usize).is_multiple_of(LINE_BYTES)
}

/// The gates' weight matrices and every row whose width is a multiple of
/// a line; returns how many rows were checked.
fn assert_weights_on_lines(net: &DeepRnn, what: &str) -> usize {
    let mut rows = 0;
    for (id, gate) in net.gates() {
        for (name, m) in [("wx", gate.wx()), ("wh", gate.wh())] {
            assert!(on_a_line(m.as_slice()), "{what} {id:?} {name}");
            if (m.cols() * 4).is_multiple_of(LINE_BYTES) {
                for r in 0..m.rows() {
                    assert!(on_a_line(m.row(r)), "{what} {id:?} {name} row {r}");
                }
                rows += m.rows();
            }
        }
    }
    rows
}

fn assert_sign_blocks_on_lines(mirror: &BinaryNetwork, what: &str) {
    for (id, gate) in mirror.iter() {
        assert!(on_a_line(gate.sign_block()), "{what} {id:?} sign block");
    }
}

#[test]
fn loaded_weights_start_on_a_line_on_both_sides_of_the_mmap_threshold() {
    // A `W_h` of 4 KiB and one of 4 MiB: below and above glibc's mmap
    // threshold, so the load reads them into heap and mapped buffers.
    let mut rng = DeterministicRng::seed_from_u64(41);
    for hidden in [32, 1024] {
        let config = DeepRnnConfig::new(CellKind::Gru, 3, hidden).output_size(5);
        let net = DeepRnn::random(&config, &mut rng).unwrap();
        let bytes = nfm::model::save_to_vec(&net, Some(&BinaryNetwork::mirror(&net))).unwrap();
        let loaded = nfm::model::load_from_slice(&bytes).unwrap();
        let what = format!("hidden {hidden}");
        assert_weights_on_lines(&loaded.network, &what);
        let head = loaded.network.head().expect("the config has a head");
        assert!(on_a_line(head.weights().as_slice()), "{what} head");
        assert_sign_blocks_on_lines(loaded.mirror.as_ref().unwrap(), &what);
    }
}

#[test]
fn table1_weights_and_sign_blocks_start_on_a_line() {
    let mut rows = 0;
    for id in NetworkId::ALL {
        let workload = WorkloadBuilder::new(id)
            .scale(0.125)
            .sequences(1)
            .sequence_length(1)
            .seed(37)
            .build()
            .expect("workload builds");
        let model = workload.model();
        let name = id.name();
        let bytes = nfm::model::save_to_vec(model.network(), Some(model.mirror())).unwrap();
        let loaded = nfm::model::load_from_slice(&bytes).unwrap();
        rows += assert_weights_on_lines(&loaded.network, &format!("{name} loaded"));
        rows += assert_weights_on_lines(model.network(), &format!("{name} built"));
        let read = loaded.mirror.expect("the artifact carries its mirror");
        assert_sign_blocks_on_lines(&read, &format!("{name} loaded"));
        assert_sign_blocks_on_lines(model.mirror(), &format!("{name} mirrored"));
        let rebuilt = BinaryNetwork::mirror(&loaded.network);
        assert_sign_blocks_on_lines(&rebuilt, &format!("{name} rebuilt"));
    }
    assert!(
        rows > 0,
        "no Table 1 width at this scale is a multiple of 16"
    );
}

#[test]
fn lane_state_prefixes_start_on_a_line() {
    for (lanes, hidden) in [(1, 3), (8, 16), (8, 25), (3, 400)] {
        let mut state = BatchState::zeros(lanes, hidden);
        for active in 1..=lanes {
            assert!(on_a_line(state.h_prefix(active)), "{lanes}x{hidden} h");
            assert!(on_a_line(state.c_prefix(active)), "{lanes}x{hidden} c");
            assert!(
                on_a_line(state.h_prefix_mut(active)),
                "{lanes}x{hidden} h mut"
            );
        }
        if hidden % 16 == 0 {
            for l in 0..lanes {
                let lane = &state.h_prefix(lanes)[l * hidden..];
                assert!(on_a_line(lane), "{lanes}x{hidden} lane {l}");
            }
        }
    }
}
