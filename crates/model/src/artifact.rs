//! The versioned binary artifact format and its save/load paths.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! [ 0..8)   magic          b"NFMMODL\0"
//! [ 8..12)  format version u32 (currently 3; any other is refused)
//! [12..16)  flags          u32 (bit 0: head present, bit 1: mirror present)
//! [16..20)  meta length    u32 (descriptor + tensor table, bytes)
//! [20..24)  reserved       u32 (zero)
//! [24..32)  payload length u64 (tensor bytes, 64-byte multiple)
//! [32..32+meta)            descriptor + tensor table
//! [..]                     payload: tensor bytes, each tensor 64-byte aligned
//! [last 8]                 four-lane word hash over meta ++ payload (`Checksum`)
//! ```
//!
//! The prelude, the descriptor and each table record are fixed-size
//! sections, each declared once (`section!`) for both directions.  The
//! descriptor fixes the network's structure (cell kind, direction,
//! layer count, head/mirror presence); the tensor table holds one
//! 24-byte record per tensor — identity (owner, layer, direction, gate
//! kind), activation, element kind, shape, and the 64-byte-aligned byte
//! offset of its data in the payload.
//!
//! # One canonical tensor list
//!
//! `canonical` is the single definition of which tensors an artifact
//! holds, in what order, and where in the payload each one sits: per
//! gate in [`DeepRnn::gates`] order its `wx`, `wh`, `bias` and optional
//! `peephole`; then the head's weights and bias; then the mirror's sign
//! blocks, one tensor per gate in the same gate order, each tensor at
//! the next 64-byte boundary.  [`save`] writes exactly that table and
//! payload.  [`load`] rebuilds the network (and mirror) by looking each
//! tensor's record up by its identity, then requires the table it read
//! to equal the canonical table of what it rebuilt — record for record,
//! offsets and payload length included — so a reordered, duplicated,
//! missing or extra record is refused as malformed.  A new tensor is one
//! owner code plus one `canonical` entry.
//!
//! # The mirror tensor (format version 2)
//!
//! A mirror gate is **one** `KIND_BITS` tensor: the gate's packed sign
//! block exactly as [`BinaryGate::sign_block`] holds it and the predict
//! kernel reads it (layout in [`nfm_bnn::popcount`]) — `xw + hw` words a
//! row, rows interleaved eight to a block, padding zero.  Its record
//! carries `rows` = neurons and `cols` = `input_size + hidden_size`
//! sign bits a row; the split between the two is the f32 gate's, whose
//! shape the mirror must have.  A block is a whole number of 64-byte
//! groups, so it ends exactly where the next tensor (or the payload)
//! does, and the loader requires that extent to be
//! `ceil(rows / 8) * 8 * (xw + hw)` words and every padding bit and
//! padding row in it to be zero: the kernel does not mask, so a loaded
//! mirror must predict exactly what a rebuilt one would.  Version 1
//! stored per-row sign words in two tensors per gate; there is no
//! second reader, a v1 artifact is refused as an unsupported version.
//!
//! # One buffer per tensor
//!
//! The tensor table is in the meta, which [`load`] reads before the
//! payload.  From it, `load` plans each record's payload region, from
//! its offset to the next record's (the last one's to the payload's
//! end), and reads each region straight into that tensor's own
//! [`LineBuf`] in chunks of at most 256 KiB, summing each chunk as it
//! lands.  That read is the one copy a load makes: a weight matrix
//! takes its buffer as its storage ([`Matrix::from_line_buf`]), a
//! mirror gate its sign block ([`BinaryGate::from_sign_block`]), so the
//! payload is never held twice.
//!
//! # Robustness
//!
//! Loading hostile bytes must never panic: every read is bounds-checked
//! against declared (and capped) section lengths, every code and count
//! is range-checked, the regions must tile the payload in table order
//! and each must hold its tensor before anything is allocated for it,
//! and the trailing checksum is verified before any reconstruction and
//! before any error the table gives: a table whose regions do not tile
//! the payload has the payload summed through one scratch chunk, and is
//! reported once the checksum holds.

use crate::error::{ModelArtifactError, Result};
use nfm_bnn::{BinaryGate, BinaryNetwork, Model};
use nfm_rnn::{Cell, CellKind, DeepRnn, Dense, Gate, GateId, GateKind, Layer};
use nfm_tensor::activation::Activation;
use nfm_tensor::{LineBuf, Matrix, Vector};
use std::collections::HashMap;
use std::io::{Read, Write};

/// First eight bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"NFMMODL\0";

/// The format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 3;

/// Every tensor's payload offset is a multiple of this.
pub const TENSOR_ALIGN: usize = 64;

const FLAG_HEAD: u32 = 1;
const FLAG_MIRROR: u32 = 1 << 1;
const KNOWN_FLAGS: u32 = FLAG_HEAD | FLAG_MIRROR;

/// Caps on declared sizes so hostile headers cannot drive huge
/// allocations before the checksum is even checked.
const MAX_META_BYTES: usize = 1 << 24;
const MAX_PAYLOAD_BYTES: u64 = 1 << 33;
const MAX_LAYERS: usize = 1 << 12;
const MAX_DIM: usize = 1 << 24;

/// The payload is read, and summed, at most this many bytes at a time,
/// so each chunk is summed while it is still in L2.
const CHUNK: usize = 256 << 10;

/// Who a tensor belongs to; the discriminant is the record's owner code.
#[derive(Debug, Clone, Copy)]
enum Owner {
    Wx,
    Wh,
    Bias,
    Peephole,
    HeadWeights,
    HeadBias,
    Mirror,
}

const KIND_F32: u8 = 0;
const KIND_BITS: u8 = 1;

// Code tables: a value's code is its position in its table, in both
// directions.
const BOOLS: [bool; 2] = [false, true];
const CELLS: [CellKind; 2] = [CellKind::Lstm, CellKind::Gru];
const ACTIVATIONS: [Activation; 5] = [
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Relu,
    Activation::HardSigmoid,
    Activation::Identity,
];
const GATE_KINDS: [GateKind; GateKind::COUNT] = [
    GateKind::Input,
    GateKind::Forget,
    GateKind::Candidate,
    GateKind::Output,
    GateKind::Update,
    GateKind::Reset,
];

fn encode<T: PartialEq>(table: &[T], value: T) -> u8 {
    let code = table.iter().position(|v| *v == value);
    code.expect("every value has a code") as u8
}

fn decode<T: Copy>(table: &[T], code: u8, what: &str) -> Result<T> {
    (table.get(usize::from(code)).copied())
        .ok_or_else(|| malformed(format!("unknown {what} code {code}")))
}

fn malformed(what: impl Into<String>) -> ModelArtifactError {
    ModelArtifactError::Malformed { what: what.into() }
}

/// Maps a short read to [`ModelArtifactError::Truncated`] naming `what`.
fn truncated(what: &'static str) -> impl FnOnce(std::io::Error) -> ModelArtifactError {
    move |e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => ModelArtifactError::Truncated { what },
        _ => ModelArtifactError::Io(e),
    }
}

fn read_exact(reader: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<()> {
    reader.read_exact(buf).map_err(truncated(what))
}

const STRIPE: usize = 32; // one checksum word for each of four lanes
const P1: u64 = 0x9e37_79b1_85eb_ca87; // XXH64's primes
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;

/// XXH64's round: a bijection of `lane`, injective in `word`.
fn round(lane: u64, word: u64) -> u64 {
    let lane = lane.wrapping_add(word.wrapping_mul(P2));
    lane.rotate_left(31).wrapping_mul(P1)
}

/// The trailing checksum of `save` and `load` since format version 3
/// (version 2: byte-wise FNV-1a 64): four lanes seeded by the meta length,
/// each 32-byte stripe of the zero-padded meta, then the payload, feeding
/// one word to each, folded in order and avalanched.  Each step is a
/// bijection of its lane and injective in its word, so any one changed word
/// is detected (not so word-wise FNV-1a: two bit-63 flips in a lane cancel).
struct Checksum([u64; 4]);

impl Checksum {
    fn new(meta: &[u8]) -> Self {
        let seeds = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        let mut sum = Checksum(seeds.map(|s| s.wrapping_add(meta.len() as u64)));
        let mut padded = meta.to_vec();
        padded.resize(meta.len().next_multiple_of(STRIPE), 0);
        sum.update(&padded);
        sum
    }

    fn update(&mut self, bytes: &[u8]) {
        assert!(bytes.len().is_multiple_of(STRIPE), "whole stripes only");
        for stripe in bytes.chunks_exact(STRIPE) {
            for (lane, word) in self.0.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
            }
        }
    }

    fn finish(&self) -> u64 {
        let h = self.0.iter().fold(0, |h, &lane| round(h, lane));
        let h = (h ^ (h >> 33)).wrapping_mul(P2);
        let h = (h ^ (h >> 29)).wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// One fixed-width little-endian field: appended by `put`, and read by
/// `get` off the front of a slice at least `LEN` bytes long.
trait Field: Sized {
    const LEN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(bytes: &mut &[u8]) -> Self;
}

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> &'a [u8] {
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    head
}

macro_rules! le_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const LEN: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &mut &[u8]) -> Self {
                <$t>::from_le_bytes(take(bytes, Self::LEN).try_into().expect("LEN bytes"))
            }
        }
    )*};
}
le_field!(u8, u16, u32, u64, f32);

impl<const N: usize> Field for [u8; N] {
    const LEN: usize = N;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn get(bytes: &mut &[u8]) -> Self {
        take(bytes, N).try_into().expect("N bytes")
    }
}

/// A fixed-size section: its fields in byte order, declared once for
/// `write_to`, `parse` and its length.  `parse` takes exactly the
/// section's bytes; a zero field is checked where the section is read.
macro_rules! section {
    ($ty:ident[$len:ident] { $($field:ident: $t:ty),* $(,)? }) => {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct $ty {
            $($field: $t,)*
        }

        const $len: usize = 0 $(+ <$t as Field>::LEN)*;

        impl $ty {
            fn write_to(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }

            fn parse(mut bytes: &[u8]) -> Self {
                debug_assert_eq!(bytes.len(), $len);
                $ty { $($field: Field::get(&mut bytes),)* }
            }
        }
    };
}

section!(Prelude[PRELUDE_LEN] {
    magic: [u8; 8], version: u32, flags: u32, meta_len: u32, reserved: u32, payload_len: u64,
});

section!(Descriptor[DESCRIPTOR_LEN] {
    cell: u8, bidirectional: u8, head: u8, mirror: u8, layers: u32, records: u32,
});

section!(Record[RECORD_LEN] {
    owner: u8, dir: u8, gate_kind: u8, activation: u8, kind: u8, pad: u8,
    layer: u16, rows: u32, cols: u32, offset: u64,
});

/// A tensor's identity in the table: owner, layer, direction and gate
/// kind codes.
type Key = (u8, u16, u8, u8);

/// `at` is `None` for the head, whose tensors belong to no gate.  Layer
/// counts are capped at `MAX_LAYERS`, so a layer index fits the `u16`.
fn key(owner: Owner, at: Option<GateId>) -> Key {
    let Some(id) = at else {
        return (owner as u8, 0, 0, 0);
    };
    (
        owner as u8,
        id.layer as u16,
        id.direction as u8,
        encode(&GATE_KINDS, id.kind),
    )
}

impl Record {
    fn key(&self) -> Key {
        (self.owner, self.layer, self.dir, self.gate_kind)
    }
}

/// Each record's payload region in bytes: from its offset to the next
/// record's, the last one's to `payload_len`.
///
/// # Errors
///
/// [`ModelArtifactError::Malformed`] unless the regions tile
/// `[0, payload_len)` in table order on `TENSOR_ALIGN` boundaries and
/// each holds its tensor: `rows × cols` floats, or as many sign bits.
fn regions(records: &[Record], payload_len: u64) -> Result<Vec<usize>> {
    let ends = (records.iter().skip(1))
        .map(|r| r.offset)
        .chain([payload_len]);
    let (mut start, mut regions) = (0, Vec::with_capacity(records.len()));
    for (r, end) in records.iter().zip(ends) {
        let caps = 1..=MAX_DIM as u32;
        let capped = caps.contains(&r.rows) && caps.contains(&r.cols);
        let width = match r.kind {
            KIND_F32 => 32,
            KIND_BITS => 1,
            _ => 0,
        };
        let bits = width * u64::from(r.rows) * u64::from(r.cols);
        let tiles = r.offset == start && end % TENSOR_ALIGN as u64 == 0;
        let len = (end.checked_sub(start))
            .filter(|&len| tiles && capped && bits > 0 && bits.div_ceil(8) <= len)
            .and_then(|len| usize::try_from(len).ok());
        let what = || format!("{r:?} does not hold its tensor in {start}..{end}");
        regions.push(len.ok_or_else(|| malformed(what()))?);
        start = end;
    }
    match start == payload_len {
        true => Ok(regions),
        false => Err(malformed(format!("no record holds {start}..{payload_len}"))),
    }
}

/// Reads `dst` in chunks of at most `CHUNK` bytes, summing each as it lands.
fn read_summed(reader: &mut impl Read, dst: &mut [u8], sum: &mut Checksum) -> Result<()> {
    for chunk in dst.chunks_mut(CHUNK) {
        read_exact(reader, chunk, "payload")?;
        sum.update(chunk);
    }
    Ok(())
}

/// A tensor's own buffer, as [`load`] reads its region into it.
enum Buf {
    /// `rows × cols` floats; the region's padding is cut off.
    F32(LineBuf<f32>),
    /// The whole region: a sign block ends where its region does.
    Bits(LineBuf<u64>),
}

impl Buf {
    /// Reads record `r`'s `bytes`-long region (planned by `regions`).
    fn read(reader: &mut impl Read, r: &Record, bytes: usize, sum: &mut Checksum) -> Result<Self> {
        if r.kind == KIND_BITS {
            let mut words = LineBuf::zeros(bytes / 8);
            read_summed(reader, words.as_bytes_mut(), sum)?;
            return Ok(Buf::Bits(words));
        }
        let mut values = LineBuf::zeros(bytes / 4);
        read_summed(reader, values.as_bytes_mut(), sum)?;
        values.resize(r.rows as usize * r.cols as usize);
        Ok(Buf::F32(values))
    }
}

/// A tensor's values, as `save` writes them into the payload.
enum Data<'a> {
    F32(&'a [f32]),
    Bits(&'a [u64]),
}

/// A tensor's `(rows, cols)` and values.
type Tensor<'a> = ((usize, usize), Data<'a>);

fn matrix(m: &Matrix) -> Tensor<'_> {
    ((m.rows(), m.cols()), Data::F32(m.as_slice()))
}

fn column(v: &Vector) -> Tensor<'_> {
    ((v.len(), 1), Data::F32(v.as_slice()))
}

/// A sign block's record shape is neurons × sign bits a row.
fn signs(bg: &BinaryGate) -> Tensor<'_> {
    let cols = bg.input_size() + bg.hidden_size();
    ((bg.neurons(), cols), Data::Bits(bg.sign_block()))
}

impl Data<'_> {
    fn kind_and_bytes(&self) -> (u8, u64) {
        match self {
            Data::F32(v) => (KIND_F32, 4 * v.len() as u64),
            Data::Bits(w) => (KIND_BITS, 8 * w.len() as u64),
        }
    }

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Data::F32(v) => v.iter().for_each(|x| x.put(out)),
            Data::Bits(w) => w.iter().for_each(|x| x.put(out)),
        }
    }
}

/// An artifact's tensor table and payload layout.
#[derive(Default)]
struct Layout<'a> {
    records: Vec<Record>,
    data: Vec<Data<'a>>,
    payload_len: u64,
}

/// The canonical tensor list of `network` and its `mirror` (module
/// docs): every tensor's record, offset included, and its values.
///
/// # Errors
///
/// [`ModelArtifactError::Malformed`] for a dimension outside the caps,
/// or a mirror missing a gate of the network or holding one of another
/// shape.
fn canonical<'a>(network: &'a DeepRnn, mirror: Option<&'a BinaryNetwork>) -> Result<Layout<'a>> {
    let mut layout = Layout::default();
    let mut push = |owner: Owner, at, activation, ((rows, cols), data): Tensor<'a>| {
        if !(1..=MAX_DIM).contains(&rows) || !(1..=MAX_DIM).contains(&cols) {
            return Err(malformed(format!(
                "{owner:?} shape {rows}x{cols} outside 1..={MAX_DIM}"
            )));
        }
        let (owner, layer, dir, gate_kind) = key(owner, at);
        let (kind, bytes) = data.kind_and_bytes();
        let offset = layout.payload_len.next_multiple_of(TENSOR_ALIGN as u64);
        layout.payload_len = offset + bytes;
        layout.records.push(Record {
            owner,
            dir,
            gate_kind,
            activation,
            kind,
            pad: 0,
            layer,
            rows: rows as u32,
            cols: cols as u32,
            offset,
        });
        layout.data.push(data);
        Ok(())
    };
    for (id, gate) in network.gates() {
        let (at, act) = (Some(id), encode(&ACTIVATIONS, gate.activation()));
        push(Owner::Wx, at, act, matrix(gate.wx()))?;
        push(Owner::Wh, at, act, matrix(gate.wh()))?;
        push(Owner::Bias, at, act, column(gate.bias()))?;
        if let Some(p) = gate.peephole() {
            push(Owner::Peephole, at, act, column(p))?;
        }
    }
    if let Some(head) = network.head() {
        let act = encode(&ACTIVATIONS, head.activation());
        push(Owner::HeadWeights, None, act, matrix(head.weights()))?;
        push(Owner::HeadBias, None, act, column(head.bias()))?;
    }
    for (id, gate) in mirror.map_or_else(Vec::new, |_| network.gates()) {
        let bg = (mirror.and_then(|m| m.gate(id)))
            .filter(|bg| bg.has_shape_of(gate))
            .ok_or_else(|| malformed(format!("mirror has no gate of its shape for {id:?}")))?;
        // A sign block has no activation; its activation code is 0.
        push(Owner::Mirror, Some(id), 0, signs(bg))?;
    }
    // The payload ends on a TENSOR_ALIGN boundary, as every region does.
    layout.payload_len = layout.payload_len.next_multiple_of(TENSOR_ALIGN as u64);
    Ok(layout)
}

fn ensure_little_endian() -> Result<()> {
    if cfg!(target_endian = "big") {
        return Err(ModelArtifactError::UnsupportedEndianness);
    }
    Ok(())
}

/// Serializes `network` (and optionally its binary `mirror`) as one
/// artifact.  Returns the number of bytes written.
///
/// # Errors
///
/// Returns [`ModelArtifactError::Io`] on writer failure,
/// [`ModelArtifactError::UnsupportedEndianness`] on big-endian targets,
/// and [`ModelArtifactError::Malformed`] if the network's structure
/// cannot be represented (mixed cell kinds across layers, a mirror
/// missing a network gate or holding one of another shape, dimensions
/// beyond the format's caps).
pub fn save(
    network: &DeepRnn,
    mirror: Option<&BinaryNetwork>,
    writer: &mut impl Write,
) -> Result<u64> {
    ensure_little_endian()?;
    let (layers, first) = (network.layers(), &network.layers()[0]);
    let (cell, bidirectional) = (first.forward_cell().kind(), first.is_bidirectional());
    let mixed =
        |l: &Layer| l.forward_cell().kind() != cell || l.is_bidirectional() != bidirectional;
    if layers.len() > MAX_LAYERS || layers.iter().any(mixed) {
        return Err(malformed(format!(
            "artifact requires at most {MAX_LAYERS} layers of one cell kind and direction"
        )));
    }
    let layout = canonical(network, mirror)?;
    let (has_head, has_mirror) = (network.head().is_some(), mirror.is_some());

    let mut meta = Vec::with_capacity(DESCRIPTOR_LEN + layout.records.len() * RECORD_LEN);
    Descriptor {
        cell: encode(&CELLS, cell),
        bidirectional: encode(&BOOLS, bidirectional),
        head: encode(&BOOLS, has_head),
        mirror: encode(&BOOLS, has_mirror),
        layers: layers.len() as u32,
        records: layout.records.len() as u32,
    }
    .write_to(&mut meta);
    for r in &layout.records {
        r.write_to(&mut meta);
    }
    if meta.len() > MAX_META_BYTES {
        return Err(malformed(format!(
            "meta section {} exceeds cap {MAX_META_BYTES}",
            meta.len()
        )));
    }

    let mut payload = Vec::with_capacity(layout.payload_len as usize);
    for (r, data) in layout.records.iter().zip(&layout.data) {
        payload.resize(r.offset as usize, 0);
        data.put(&mut payload);
    }
    payload.resize(layout.payload_len as usize, 0);

    let mut prelude = Vec::with_capacity(PRELUDE_LEN);
    Prelude {
        magic: MAGIC,
        version: FORMAT_VERSION,
        flags: if has_head { FLAG_HEAD } else { 0 } | if has_mirror { FLAG_MIRROR } else { 0 },
        meta_len: meta.len() as u32,
        reserved: 0,
        payload_len: layout.payload_len,
    }
    .write_to(&mut prelude);

    let mut sum = Checksum::new(&meta);
    sum.update(&payload);
    writer.write_all(&prelude)?;
    writer.write_all(&meta)?;
    writer.write_all(&payload)?;
    writer.write_all(&sum.finish().to_le_bytes())?;
    Ok((PRELUDE_LEN + meta.len() + payload.len() + 8) as u64)
}

/// A model loaded from an artifact: the reconstructed network and its
/// optional binary mirror, each tensor in the buffer `load` read it into.
#[derive(Debug, Clone)]
pub struct LoadedModel {
    /// The reconstructed network.
    pub network: DeepRnn,
    /// The binary mirror, when the artifact carried one.
    pub mirror: Option<BinaryNetwork>,
}

/// A loaded artifact as a servable model version: the mirror the
/// artifact carried is the version's mirror, never rebuilt.
impl From<LoadedModel> for Model {
    fn from(loaded: LoadedModel) -> Model {
        Model::with_mirror(loaded.network, loaded.mirror)
    }
}

/// The sign block of gate `id` (module docs): record `r`'s whole region.
fn sign_block(r: &Record, block: Buf, (id, gate): (GateId, &Gate)) -> Result<BinaryGate> {
    let malformed = |what: String| malformed(format!("mirror of {id:?}: {what}"));
    let Buf::Bits(block) = block else {
        return Err(malformed(format!("{r:?} is not a sign tensor")));
    };
    let (rows, cols) = (r.rows as usize, r.cols as usize);
    let (neurons, isz, hsz) = (gate.neurons(), gate.input_size(), gate.hidden_size());
    if (rows, cols) != (neurons, isz + hsz) {
        return Err(malformed(format!(
            "shape {rows}x{cols} differs from its gate's {neurons}x({isz}+{hsz})"
        )));
    }
    BinaryGate::from_sign_block(block, neurons, isz, hsz)
        .map_err(|e| malformed(format!("sign block: {e}")))
}

/// Reads one artifact, verifying magic, version, declared lengths and
/// the trailing checksum, then reconstructs the network (and mirror, if
/// present), each tensor in the buffer its payload region was read into.
///
/// # Errors
///
/// Every corruption mode surfaces as a typed [`ModelArtifactError`]
/// (truncation, checksum mismatch, malformed structure, invalid tensor
/// geometry); hostile input never panics and never allocates beyond the
/// format's declared-size caps.
pub fn load(reader: &mut impl Read) -> Result<LoadedModel> {
    ensure_little_endian()?;
    let mut bytes = [0u8; PRELUDE_LEN];
    read_exact(reader, &mut bytes, "prelude")?;
    let prelude = Prelude::parse(&bytes);
    if prelude.magic != MAGIC {
        return Err(ModelArtifactError::BadMagic);
    }
    if prelude.version != FORMAT_VERSION {
        return Err(ModelArtifactError::UnsupportedVersion {
            found: prelude.version,
            supported: FORMAT_VERSION,
        });
    }
    if prelude.flags & !KNOWN_FLAGS != 0 {
        return Err(malformed(format!(
            "unknown flag bits {:#010x}",
            prelude.flags & !KNOWN_FLAGS
        )));
    }
    if prelude.reserved != 0 {
        return Err(malformed("non-zero reserved prelude field"));
    }
    let (meta_len, payload_len) = (prelude.meta_len as usize, prelude.payload_len);
    if !(DESCRIPTOR_LEN..=MAX_META_BYTES).contains(&meta_len) {
        return Err(malformed(format!(
            "meta length {meta_len} outside {DESCRIPTOR_LEN}..={MAX_META_BYTES}"
        )));
    }
    if payload_len > MAX_PAYLOAD_BYTES || payload_len % TENSOR_ALIGN as u64 != 0 {
        return Err(malformed(format!(
            "payload length {payload_len} not a {TENSOR_ALIGN}-byte multiple within cap \
             {MAX_PAYLOAD_BYTES}"
        )));
    }

    let mut meta = vec![0u8; meta_len];
    read_exact(reader, &mut meta, "meta section")?;
    let (descriptor, table) = meta.split_at(DESCRIPTOR_LEN);
    let records: Vec<Record> = table.chunks_exact(RECORD_LEN).map(Record::parse).collect();
    // Each region lands in its tensor's own buffer, summed as it lands.  A
    // table that does not tile the payload has it summed through one
    // scratch chunk, and is reported only once the checksum holds.
    let mut sum = Checksum::new(&meta);
    let planned = regions(&records, payload_len);
    let tensors = match &planned {
        Ok(regions) => (records.iter().zip(regions))
            .map(|(r, &bytes)| Ok(Some(Buf::read(reader, r, bytes, &mut sum)?).into()))
            .collect::<Result<Vec<std::cell::Cell<_>>>>()?,
        Err(_) => {
            let len = payload_len as usize;
            let mut scratch = vec![0u8; CHUNK.min(len)];
            for at in (0..len).step_by(CHUNK) {
                read_summed(reader, &mut scratch[..CHUNK.min(len - at)], &mut sum)?;
            }
            Vec::new()
        }
    };
    let mut stored = [0u8; 8];
    read_exact(reader, &mut stored, "checksum")?;
    let stored = u64::from_le_bytes(stored);
    let computed = sum.finish();
    if stored != computed {
        return Err(ModelArtifactError::ChecksumMismatch { stored, computed });
    }
    planned?;

    let descriptor = Descriptor::parse(descriptor);
    let cell = decode(&CELLS, descriptor.cell, "cell kind")?;
    let bidirectional = decode(&BOOLS, descriptor.bidirectional, "direction")?;
    let has_head = decode(&BOOLS, descriptor.head, "head flag")?;
    let has_mirror = decode(&BOOLS, descriptor.mirror, "mirror flag")?;
    if has_head != (prelude.flags & FLAG_HEAD != 0)
        || has_mirror != (prelude.flags & FLAG_MIRROR != 0)
    {
        return Err(malformed("descriptor flags disagree with prelude flags"));
    }
    let layer_count = descriptor.layers as usize;
    if layer_count == 0 || layer_count > MAX_LAYERS {
        return Err(malformed(format!(
            "layer count {layer_count} outside 1..={MAX_LAYERS}"
        )));
    }
    if table.len() % RECORD_LEN != 0 || table.len() / RECORD_LEN != descriptor.records as usize {
        return Err(malformed(format!(
            "record count {} disagrees with meta length {meta_len}",
            descriptor.records
        )));
    }
    if records.iter().any(|r| r.pad != 0) {
        return Err(malformed("non-zero record padding"));
    }

    // Rebuild by identity; `canonical` judges the table's order below.
    let index: HashMap<Key, usize> = (records.iter().enumerate())
        .map(|(i, r)| (r.key(), i))
        .collect();
    let find = |owner, at| index.get(&key(owner, at)).copied();
    let need = |owner, at| {
        find(owner, at).ok_or_else(|| malformed(format!("no {owner:?} record for {at:?}")))
    };
    // Each record is looked up by its own key, so taken at most once.
    let take = |i: usize| {
        (tensors[i].take()).ok_or_else(|| malformed(format!("record {i} is taken twice")))
    };
    let f32s_at = |i: usize| match take(i)? {
        Buf::F32(values) => Ok(values),
        Buf::Bits(_) => Err(malformed(format!("{:?} is not an f32 tensor", records[i]))),
    };
    let matrix_at = |i: usize| -> Result<Matrix> {
        let r = &records[i];
        Matrix::from_line_buf(r.rows as usize, r.cols as usize, f32s_at(i)?)
            .map_err(|e| malformed(format!("{r:?}: {e}")))
    };
    let vector_at =
        |i: usize| -> Result<Vector> { Ok(Vector::from(&f32s_at(i)?[..records[i].rows as usize])) };
    let cell_at = |k: usize, d: usize| -> Result<Cell> {
        let gates = cell.gate_kinds().iter().map(|&kind| -> Result<Gate> {
            let at = Some(GateId::new(k, d, kind));
            let wx = need(Owner::Wx, at)?;
            Ok(Gate::new(
                matrix_at(wx)?,
                matrix_at(need(Owner::Wh, at)?)?,
                vector_at(need(Owner::Bias, at)?)?,
                find(Owner::Peephole, at).map(vector_at).transpose()?,
                decode(&ACTIVATIONS, records[wx].activation, "activation")?,
            )?)
        });
        Ok(Cell::new(cell, gates.collect::<Result<_>>()?)?)
    };
    let layers = (0..layer_count).map(|k| -> Result<Layer> {
        let backward = bidirectional.then(|| cell_at(k, 1)).transpose()?;
        Ok(Layer::new(k, cell_at(k, 0)?, backward)?)
    });
    let head = has_head.then(|| -> Result<Dense> {
        let w = need(Owner::HeadWeights, None)?;
        let activation = decode(&ACTIVATIONS, records[w].activation, "activation")?;
        let bias = vector_at(need(Owner::HeadBias, None)?)?;
        Ok(Dense::new(matrix_at(w)?, bias, activation)?)
    });
    let network = DeepRnn::new(layers.collect::<Result<_>>()?, head.transpose()?)?;
    let mirror = has_mirror.then(|| {
        let gates = network.gates().into_iter().map(|(id, gate)| -> Result<_> {
            let i = need(Owner::Mirror, Some(id))?;
            Ok((id, sign_block(&records[i], take(i)?, (id, gate))?))
        });
        gates.collect::<Result<_>>().map(BinaryNetwork::from_gates)
    });
    let mirror = mirror.transpose()?;

    let layout = canonical(&network, mirror.as_ref())?;
    if let Some(i) = (0..=records.len()).find(|&i| records.get(i) != layout.records.get(i)) {
        let (found, canonical) = (records.get(i), layout.records.get(i));
        return Err(malformed(format!(
            "table record {i} is {found:?}, canonically {canonical:?}"
        )));
    }
    if layout.payload_len != payload_len {
        let canonical = layout.payload_len;
        return Err(malformed(format!(
            "payload of {payload_len} bytes, canonically {canonical}"
        )));
    }
    Ok(LoadedModel { network, mirror })
}

/// Serializes to an in-memory byte buffer (tests, network transport).
///
/// # Errors
///
/// Same as [`save`].
pub fn save_to_vec(network: &DeepRnn, mirror: Option<&BinaryNetwork>) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    save(network, mirror, &mut out)?;
    Ok(out)
}

/// Loads from an in-memory byte buffer.
///
/// # Errors
///
/// Same as [`load`].
pub fn load_from_slice(mut bytes: &[u8]) -> Result<LoadedModel> {
    load(&mut bytes)
}
