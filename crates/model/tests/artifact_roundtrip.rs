//! Artifact round-trip and adversarial-input properties.
//!
//! The serving stack loads artifacts from the network; any byte
//! sequence must either reconstruct the exact saved model or fail with
//! a typed error.  These tests pin (1) bitwise round-trip fidelity for
//! every structural variant, (2) the chunked load (each tensor's
//! region read into its own buffer, bit-identical on both sides of a
//! chunk boundary), and (3) never-panic behavior under truncation,
//! single-byte corruption, tampered tables and pure garbage.

use nfm_bnn::BinaryNetwork;
use nfm_model::{load_from_slice, save_to_vec, ModelArtifactError, FORMAT_VERSION};
use nfm_rnn::{CellKind, DeepRnn, DeepRnnConfig, Direction, ExactEvaluator};
use nfm_tensor::rng::DeterministicRng;
use nfm_tensor::Vector;

fn networks() -> Vec<(&'static str, DeepRnn)> {
    let mut rng = DeterministicRng::seed_from_u64(42);
    vec![
        (
            "lstm-head-peepholes",
            DeepRnn::random(
                &DeepRnnConfig::new(CellKind::Lstm, 5, 9)
                    .layers(2)
                    .output_size(4),
                &mut rng,
            )
            .unwrap(),
        ),
        (
            "lstm-no-peepholes",
            DeepRnn::random(
                &DeepRnnConfig::new(CellKind::Lstm, 3, 4).peepholes(false),
                &mut rng,
            )
            .unwrap(),
        ),
        (
            "gru-3layer",
            DeepRnn::random(&DeepRnnConfig::new(CellKind::Gru, 6, 7).layers(3), &mut rng).unwrap(),
        ),
        (
            "lstm-bidirectional",
            DeepRnn::random(
                &DeepRnnConfig::new(CellKind::Lstm, 4, 5)
                    .direction(Direction::Bidirectional)
                    .output_size(2),
                &mut rng,
            )
            .unwrap(),
        ),
    ]
}

/// FNV-1a 64: the golden test's digest (and version 2's checksum).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The artifact's checksum (format version 3), written out here rather
/// than taken from `nfm-model`: four XXH64 lanes seeded by the meta
/// length, fed the meta zero-padded to a 32-byte stripe and then the
/// payload, one little-endian word to each lane in turn; the lanes are
/// folded in order through the same round, then XXH64's avalanche.
fn checksum(meta: &[u8], payload: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    const P3: u64 = 0x1656_67b1_9e37_79f9;
    let round = |lane: u64, word: u64| {
        (lane.wrapping_add(word.wrapping_mul(P2)))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let seed = meta.len() as u64;
    let mut lanes = [
        seed.wrapping_add(P1).wrapping_add(P2),
        seed.wrapping_add(P2),
        seed,
        seed.wrapping_sub(P1),
    ];
    let mut stream = meta.to_vec();
    stream.resize(meta.len().div_ceil(32) * 32, 0);
    stream.extend_from_slice(payload);
    assert_eq!(stream.len() % 32, 0, "the payload is whole stripes");
    for (i, word) in stream.chunks_exact(8).enumerate() {
        lanes[i % 4] = round(lanes[i % 4], u64::from_le_bytes(word.try_into().unwrap()));
    }
    let h = lanes.into_iter().fold(0, round);
    let h = (h ^ (h >> 33)).wrapping_mul(P2);
    let h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Where an artifact's payload starts: after the prelude and the meta.
fn payload_start(bytes: &[u8]) -> usize {
    32 + u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize
}

/// The checksum `checksum` gives an artifact's meta and payload.
fn checksum_of(bytes: &[u8]) -> u64 {
    let (payload, end) = (payload_start(bytes), bytes.len() - 8);
    checksum(&bytes[32..payload], &bytes[payload..end])
}

#[test]
fn checksum_known_answers() {
    let stripe: Vec<u8> = (0..32).collect();
    let stripe_and_tail: Vec<u8> = (0..45).collect();
    let payload: Vec<u8> = (0..64).map(|i| 255 - i).collect();
    let cases: [(&[u8], &[u8], u64); 3] = [
        (&[], &[], 0x5374_8300_ccd7_2d2b),
        (&stripe[..], &[], 0x2516_101e_2455_e6c7),
        (&stripe_and_tail[..], &payload[..], 0xb2a9_a1f4_a123_84ce),
    ];
    for (meta, payload, expected) in cases {
        assert_eq!(
            checksum(meta, payload),
            expected,
            "{} + {}",
            meta.len(),
            payload.len()
        );
        if meta.len() < 12 {
            continue; // shorter than a descriptor: refused before it is summed
        }
        // `load` verifies the checksum before it parses the meta, so a
        // zero trailer after these bytes reports what `nfm-model` sums.
        let mut bytes = b"NFMMODL\0".to_vec();
        for field in [FORMAT_VERSION, 0, meta.len() as u32, 0] {
            bytes.extend_from_slice(&field.to_le_bytes());
        }
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(meta);
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&[0; 8]);
        match load_from_slice(&bytes) {
            Err(ModelArtifactError::ChecksumMismatch {
                stored: 0,
                computed,
            }) => {
                assert_eq!(computed, expected, "{} + {}", meta.len(), payload.len())
            }
            other => panic!("expected a checksum mismatch, got {other:?}"),
        }
    }
}

fn sample_sequence(net: &DeepRnn, len: usize, seed: u64) -> Vec<Vector> {
    let mut rng = DeterministicRng::seed_from_u64(seed);
    (0..len)
        .map(|_| Vector::from_fn(net.input_size(), |_| rng.uniform(-1.0, 1.0)))
        .collect()
}

#[test]
fn round_trip_preserves_network_and_outputs_bitwise() {
    for (name, net) in networks() {
        let mirror = BinaryNetwork::mirror(&net);
        let bytes = save_to_vec(&net, Some(&mirror)).unwrap();
        let loaded = load_from_slice(&bytes).unwrap();
        assert_eq!(loaded.network, net, "{name}: network mismatch");
        assert_eq!(
            loaded.mirror.as_ref(),
            Some(&mirror),
            "{name}: mirror mismatch"
        );
        // Bit-identical inference through the loaded weights.
        let seq = sample_sequence(&net, 7, 9000);
        let expected = net.run(&seq, &mut ExactEvaluator::new()).unwrap();
        let actual = loaded
            .network
            .run(&seq, &mut ExactEvaluator::new())
            .unwrap();
        for (t, (a, b)) in expected.iter().zip(actual.iter()).enumerate() {
            for n in 0..a.len() {
                assert_eq!(a[n].to_bits(), b[n].to_bits(), "{name} t={t} n={n}");
            }
        }
    }
}

#[test]
fn round_trip_without_mirror() {
    let (_, net) = networks().remove(0);
    let bytes = save_to_vec(&net, None).unwrap();
    let loaded = load_from_slice(&bytes).unwrap();
    assert_eq!(loaded.network, net);
    assert!(loaded.mirror.is_none());
}

#[test]
fn save_load_save_is_byte_identical_and_the_loaded_mirror_is_a_rebuilt_one() {
    for (name, net) in networks() {
        let bytes = save_to_vec(&net, Some(&BinaryNetwork::mirror(&net))).unwrap();
        let loaded = load_from_slice(&bytes).unwrap();
        let mirror = loaded.mirror.as_ref().expect("saved with mirror");
        assert_eq!(
            save_to_vec(&loaded.network, Some(mirror)).unwrap(),
            bytes,
            "{name}: second save differs"
        );
        let rebuilt = BinaryNetwork::mirror(&loaded.network);
        assert_eq!(mirror, &rebuilt, "{name}: loaded vs rebuilt mirror");
        // Eight lanes through the kernel, loaded block against rebuilt.
        let mut rng = DeterministicRng::seed_from_u64(78);
        for (id, lg) in mirror.iter() {
            let rg = rebuilt.gate(*id).unwrap();
            let xs: Vec<f32> = (0..8 * lg.input_size())
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect();
            let hs: Vec<f32> = (0..8 * lg.hidden_size())
                .map(|_| rng.uniform(-1.0, 1.0))
                .collect();
            let mut packed = nfm_tensor::LineBuf::default();
            lg.pack_inputs(&xs, &hs, 8, &mut packed);
            let (mut a, mut b) = (vec![0; 8 * lg.neurons()], vec![0; 8 * lg.neurons()]);
            lg.predict_packed_into(&packed, &mut a);
            rg.predict_packed_into(&packed, &mut b);
            assert_eq!(a, b, "{name} {id:?}");
        }
    }
}

/// The pieces of an artifact a test needs to tamper with it and keep
/// the checksum valid: where the tensor table and the payload start,
/// and the last mirror record (the last record of the table).
struct Tampered {
    bytes: Vec<u8>,
    last_record: usize,
    payload: usize,
}

impl Tampered {
    /// "lstm-head-peepholes": 9 neurons a gate (two blocks, seven
    /// padding rows), 9 recurrent signs (55 padding bits a row).
    fn new() -> Self {
        let (_, net) = networks().remove(0);
        let bytes = save_to_vec(&net, Some(&BinaryNetwork::mirror(&net))).unwrap();
        let meta_len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
        Tampered {
            last_record: 32 + meta_len - 24,
            payload: 32 + meta_len,
            bytes,
        }
    }

    fn block_offset(&self) -> usize {
        let at = self.last_record + 16;
        self.payload + u64::from_le_bytes(self.bytes[at..at + 8].try_into().unwrap()) as usize
    }

    /// The bytes of table record `i` (after the 32-byte prelude and the
    /// 12-byte descriptor).
    fn record(i: usize) -> std::ops::Range<usize> {
        let at = 32 + 12 + 24 * i;
        at..at + 24
    }

    /// Re-seals the artifact (`checksum` over meta ++ payload) and loads.
    fn load(mut self) -> String {
        let (end, hash) = (self.bytes.len() - 8, checksum_of(&self.bytes));
        self.bytes[end..].copy_from_slice(&hash.to_le_bytes());
        match load_from_slice(&self.bytes) {
            Err(ModelArtifactError::Malformed { what }) => what,
            other => panic!("expected a malformed-artifact error, got {other:?}"),
        }
    }
}

#[test]
fn mirror_gate_of_another_shape_than_its_gate_is_malformed() {
    // 9 -> 10 neurons: the same two blocks, so only the shape check
    // stands between this record and a kernel reading a tenth row.
    let mut t = Tampered::new();
    let rows = t.last_record + 8;
    assert_eq!(t.bytes[rows..rows + 4], 9u32.to_le_bytes());
    t.bytes[rows..rows + 4].copy_from_slice(&10u32.to_le_bytes());
    assert!(t.load().contains("differs from its gate"));
}

#[test]
fn mirror_block_of_the_wrong_length_is_malformed() {
    // Eight more words after the last block: it no longer ends where
    // the payload does.
    let mut t = Tampered::new();
    let end = t.bytes.len() - 8;
    t.bytes.splice(end..end, [0u8; 64]);
    let payload_len = (end + 64 - t.payload) as u64;
    t.bytes[24..32].copy_from_slice(&payload_len.to_le_bytes());
    assert!(t.load().contains("length mismatch"));
}

#[test]
fn mirror_block_with_non_zero_padding_is_malformed() {
    // A padding bit: bit 9 of row 0's recurrent word (word 1 of 2).
    let mut t = Tampered::new();
    let at = t.block_offset() + 8 * 8 + 1;
    t.bytes[at] |= 0b10;
    assert!(t.load().contains("padding in row 0"));
    // A padding row: row 9, the second row of the second block.
    let mut t = Tampered::new();
    let at = t.block_offset() + 2 * 8 * 8 + 8;
    t.bytes[at] |= 1;
    assert!(t.load().contains("padding in row 9"));
}

#[test]
fn tampered_tables_are_malformed() {
    // Two records swapped: the first gate's wx and wh.
    let mut t = Tampered::new();
    let (wx, wh) = (Tampered::record(0), Tampered::record(1));
    let first = t.bytes[wx.clone()].to_vec();
    t.bytes.copy_within(wh.clone(), wx.start);
    t.bytes[wh].copy_from_slice(&first);
    t.load();
    // A record duplicated over its neighbour: wx over wh.
    let mut t = Tampered::new();
    t.bytes
        .copy_within(Tampered::record(0), Tampered::record(1).start);
    t.load();
    // The first gate's peephole record dropped, the meta length and
    // record count fixed up: every record left is well formed.
    let mut t = Tampered::new();
    let peephole = Tampered::record(3);
    assert_eq!(t.bytes[peephole.start], 3, "record 3 is a peephole");
    t.bytes.drain(peephole);
    for count in [16..20, 32 + 8..32 + 12] {
        let n = u32::from_le_bytes(t.bytes[count.clone()].try_into().unwrap());
        let fixed = if count.start == 16 { n - 24 } else { n - 1 };
        t.bytes[count].copy_from_slice(&fixed.to_le_bytes());
    }
    t.load();
    // The first gate's wx grown from 9 to 10 rows: 200 bytes of floats
    // overflow its 192-byte region.
    let mut t = Tampered::new();
    let rows = Tampered::record(0).start + 8;
    assert_eq!(t.bytes[rows..rows + 4], 9u32.to_le_bytes());
    t.bytes[rows..rows + 4].copy_from_slice(&10u32.to_le_bytes());
    assert!(t.load().contains("does not hold its tensor"));
}

/// The bytes `save` writes, pinned: for every `networks()` artifact,
/// with and without its mirror, its length, the FNV-1a 64 digest of
/// every byte but the version word `[8..12)` and the trailing checksum
/// (recorded at format version 2: version 3 changed only those), and
/// the version 3 checksum, which `checksum` must also give.
#[test]
fn golden_artifact_bytes() {
    let golden: [(&str, bool, usize, u64, u64); 8] = [
        (
            "lstm-head-peepholes",
            false,
            7348,
            0x172b_84bd_c8fe_a0be,
            0x7a1d_dd01_df2b_a264,
        ),
        (
            "lstm-head-peepholes",
            true,
            9588,
            0x5f40_6c12_553e_86a7,
            0x3581_3dd8_ad75_eeb5,
        ),
        (
            "lstm-no-peepholes",
            false,
            1108,
            0xd6f1_aeaa_76bf_6863,
            0xa7de_4de1_a871_c8dc,
        ),
        (
            "lstm-no-peepholes",
            true,
            1716,
            0x5731_0491_f873_5bfc,
            0x345d_9388_fd44_4b5e,
        ),
        (
            "gru-3layer",
            false,
            5692,
            0x866b_48eb_1cd7_b72b,
            0x4091_edb7_4aaf_1cca,
        ),
        (
            "gru-3layer",
            true,
            7060,
            0x2997_4ada_f7bd_29b6,
            0xefaa_bb40_7dfc_c168,
        ),
        (
            "lstm-bidirectional",
            false,
            3956,
            0xfeaa_f901_2abf_9768,
            0x4660_8699_afdb_1918,
        ),
        (
            "lstm-bidirectional",
            true,
            5172,
            0xba0f_6518_3f90_a5c9,
            0x4e3b_7287_66f1_b327,
        ),
    ];
    let mut actual = Vec::new();
    for (name, net) in networks() {
        for with_mirror in [false, true] {
            let mirror = with_mirror.then(|| BinaryNetwork::mirror(&net));
            let bytes = save_to_vec(&net, mirror.as_ref()).unwrap();
            let end = bytes.len() - 8;
            assert_eq!(bytes[8..12], FORMAT_VERSION.to_le_bytes(), "{name}");
            let digest = fnv1a(&[&bytes[..8], &bytes[12..end]].concat());
            let sum = u64::from_le_bytes(bytes[end..].try_into().unwrap());
            assert_eq!(sum, checksum_of(&bytes), "{name} {with_mirror}");
            actual.push((name, with_mirror, bytes.len(), digest, sum));
        }
    }
    assert_eq!(actual, golden);
}

#[test]
fn mirror_round_trip_preserves_predictions() {
    // The mirror's whole job: XNOR dot signs.  Compare every gate's
    // binary outputs for random inputs between the original and loaded
    // mirrors, through the packed kernel.
    let (_, net) = networks().remove(0);
    let mirror = BinaryNetwork::mirror(&net);
    let bytes = save_to_vec(&net, Some(&mirror)).unwrap();
    let loaded = load_from_slice(&bytes).unwrap().mirror.unwrap();
    let mut rng = DeterministicRng::seed_from_u64(77);
    for (id, bg) in mirror.iter() {
        let lg = loaded.gate(*id).expect("loaded mirror has every gate");
        let x: Vec<f32> = (0..bg.input_size())
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let h: Vec<f32> = (0..bg.hidden_size())
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let mut packed = nfm_tensor::LineBuf::default();
        bg.pack_inputs(&x, &h, 1, &mut packed);
        let (mut built, mut read) = (vec![0; bg.neurons()], vec![1; bg.neurons()]);
        bg.predict_packed_into(&packed, &mut built);
        lg.predict_packed_into(&packed, &mut read);
        assert_eq!(built, read, "{id:?}");
    }
}

#[test]
fn every_truncation_errors_and_never_panics() {
    let (_, net) = networks().remove(1);
    let mirror = BinaryNetwork::mirror(&net);
    let bytes = save_to_vec(&net, Some(&mirror)).unwrap();
    for len in 0..bytes.len() {
        let result = std::panic::catch_unwind(|| load_from_slice(&bytes[..len]));
        let loaded = result.unwrap_or_else(|_| panic!("panicked at truncation length {len}"));
        assert!(loaded.is_err(), "truncation to {len} bytes loaded cleanly");
    }
    assert!(load_from_slice(&bytes).is_ok(), "untruncated must load");
}

#[test]
fn every_single_byte_corruption_errors_and_never_panics() {
    let (_, net) = networks().remove(1);
    let bytes = save_to_vec(&net, None).unwrap();
    for at in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0xA5;
        let result = std::panic::catch_unwind(|| load_from_slice(&corrupt));
        let loaded = result.unwrap_or_else(|_| panic!("panicked at corrupted byte {at}"));
        assert!(loaded.is_err(), "corruption at byte {at} loaded cleanly");
    }
}

#[test]
fn payload_corruption_is_caught_by_checksum() {
    let (_, net) = networks().remove(2);
    let bytes = save_to_vec(&net, None).unwrap();
    let payload = payload_start(&bytes);
    let word = |i: usize| payload + 8 * i..payload + 8 * i + 8;
    let mut damaged = Vec::new();
    // A byte in the middle of the payload (well past prelude and meta):
    // only the checksum can catch it.
    let mut corrupt = bytes.clone();
    corrupt[bytes.len() - 64] ^= 0x01;
    damaged.push(("one payload bit", corrupt));
    // Bit 63 of payload words 0 and 4, which feed the same lane: a
    // word-wise FNV-1a maps bit 63 to itself, so these flips would cancel.
    let mut corrupt = bytes.clone();
    corrupt[word(0).end - 1] ^= 0x80;
    corrupt[word(4).end - 1] ^= 0x80;
    damaged.push(("bit 63 of two words of one lane", corrupt));
    // Two payload words swapped: across lanes of one stripe, and across
    // stripes of one lane.
    for other in [1, 4] {
        assert_ne!(bytes[word(0)], bytes[word(other)], "words 0 and {other}");
        let mut corrupt = bytes.clone();
        corrupt[word(0)].copy_from_slice(&bytes[word(other)]);
        corrupt[word(other)].copy_from_slice(&bytes[word(0)]);
        damaged.push(("two words swapped", corrupt));
    }
    // One bit of the meta: the sum is checked before the meta is parsed.
    let mut corrupt = bytes.clone();
    corrupt[32 + 12] ^= 0x01;
    damaged.push(("one meta bit", corrupt));
    // One bit of record 1's offset: the table no longer tiles the
    // payload, and the sum is still checked before the table is judged.
    for bit in [0, 3, 6] {
        let mut corrupt = bytes.clone();
        corrupt[Tampered::record(1).start + 16] ^= 1 << bit;
        damaged.push(("one bit of a record offset", corrupt));
    }
    for (what, corrupt) in damaged {
        match load_from_slice(&corrupt) {
            Err(ModelArtifactError::ChecksumMismatch { .. }) => {}
            other => panic!("{what}: expected checksum mismatch, got {other:?}"),
        }
    }
}

#[test]
fn garbage_and_near_miss_inputs_error_cleanly() {
    let mut rng = DeterministicRng::seed_from_u64(1234);
    for len in [0usize, 1, 7, 8, 31, 32, 33, 100, 4096] {
        let garbage: Vec<u8> = (0..len).map(|_| (rng.uniform(0.0, 256.0)) as u8).collect();
        assert!(
            std::panic::catch_unwind(|| load_from_slice(&garbage))
                .expect("garbage input panicked")
                .is_err(),
            "garbage of length {len} loaded cleanly"
        );
    }
    // Correct magic, hostile everything else.
    let mut hostile = Vec::new();
    hostile.extend_from_slice(b"NFMMODL\0");
    hostile.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    hostile.extend_from_slice(&0u32.to_le_bytes());
    hostile.extend_from_slice(&u32::MAX.to_le_bytes()); // meta_len
    hostile.extend_from_slice(&0u32.to_le_bytes());
    hostile.extend_from_slice(&u64::MAX.to_le_bytes()); // payload_len
    match load_from_slice(&hostile) {
        Err(ModelArtifactError::Malformed { .. }) => {}
        other => panic!("hostile geometry: {other:?}"),
    }
}

#[test]
fn wrong_magic_and_version_are_typed() {
    let (_, net) = networks().remove(1);
    let bytes = save_to_vec(&net, None).unwrap();
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(
        load_from_slice(&wrong_magic),
        Err(ModelArtifactError::BadMagic)
    ));
    // A newer version, the per-row-mirror version 1 and the FNV-1a
    // version 2 this build no longer reads: one typed refusal, no second
    // reader.
    for other in [99u32, 1, 2] {
        let mut versioned = bytes.clone();
        versioned[8..12].copy_from_slice(&other.to_le_bytes());
        assert!(matches!(
            load_from_slice(&versioned),
            Err(ModelArtifactError::UnsupportedVersion { found, supported: FORMAT_VERSION })
                if found == other
        ));
    }
}

/// The most `load` reads (and sums) at once, and lengths at and around
/// its boundaries.
const CHUNK: usize = 256 << 10;
const BOUNDARIES: [usize; 6] = [0, 64, CHUNK - 64, CHUNK, CHUNK + 64, 3 * CHUNK + 64];

#[test]
fn chunked_reads_hand_on_every_byte_once_in_order() {
    // A 16-neuron gate's `W_x` is 64 bytes an input, so the first tensor's
    // region, from 0, ends one line short of a chunk, on one, one line
    // past it, and one line past three.
    let mut rng = DeterministicRng::seed_from_u64(6);
    for len in BOUNDARIES[2..].iter().copied() {
        let config = DeepRnnConfig::new(CellKind::Gru, len / 64, 16);
        let net = DeepRnn::random(&config, &mut rng).unwrap();
        let bytes = save_to_vec(&net, Some(&BinaryNetwork::mirror(&net))).unwrap();
        let wh_offset = &bytes[Tampered::record(1)][16..];
        assert_eq!(wh_offset, (len as u64).to_le_bytes(), "{len}: W_x region");
        let loaded = load_from_slice(&bytes).unwrap();
        assert_eq!(loaded.network, net, "{len}");
        let again = save_to_vec(&loaded.network, loaded.mirror.as_ref()).unwrap();
        assert!(again == bytes, "{len}: the load is not bit-identical");
    }
}

#[test]
fn a_payload_cut_at_a_chunk_boundary_is_truncated() {
    // One 256-wide LSTM layer: 2 MiB of weights, past every boundary.
    let mut rng = DeterministicRng::seed_from_u64(5);
    let net = DeepRnn::random(&DeepRnnConfig::new(CellKind::Lstm, 256, 256), &mut rng).unwrap();
    let bytes = save_to_vec(&net, None).unwrap();
    let payload = payload_start(&bytes);
    assert!(bytes.len() - 8 - payload > BOUNDARIES[5]);
    assert_eq!(load_from_slice(&bytes).unwrap().network, net);
    for cut in BOUNDARIES {
        match load_from_slice(&bytes[..payload + cut]) {
            Err(ModelArtifactError::Truncated { what: "payload" }) => {}
            other => panic!("payload cut at {cut}: {other:?}"),
        }
    }
}
