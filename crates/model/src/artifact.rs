//! The versioned binary artifact format and its save/load paths.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! [ 0..8)   magic          b"NFMMODL\0"
//! [ 8..12)  format version u32 (currently 2; any other is refused)
//! [12..16)  flags          u32 (bit 0: head present, bit 1: mirror present)
//! [16..20)  meta length    u32 (descriptor + tensor table, bytes)
//! [20..24)  reserved       u32 (zero)
//! [24..32)  payload length u64 (tensor arena, bytes, 64-byte multiple)
//! [32..32+meta)            descriptor + tensor table
//! [..]                     payload: tensor bytes, each tensor 64-byte aligned
//! [last 8]                 FNV-1a 64 checksum over meta ++ payload
//! ```
//!
//! The descriptor fixes the network's structure (cell kind, direction,
//! layer count, head/mirror presence); the tensor table holds one
//! 24-byte record per tensor — identity (owner, layer, direction, gate
//! kind), activation, element kind, shape, and the 64-byte-aligned byte
//! offset of its data in the payload.  Records are written (and
//! required on load) in one canonical order: per layer → per direction
//! → per gate kind: `wx`, `wh`, `bias`, optional `peephole`; then the
//! head's weights and bias; then the mirror's sign blocks, one tensor
//! per gate in the same gate order.
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
//! # Zero-copy load
//!
//! [`load`] reads the payload with **one** bulk read into a single
//! [`TensorArena`] and carves every tensor as an arena *view*
//! ([`Matrix::from_arena`] etc.) — no per-tensor allocation or copy.
//! Views are copy-on-write, so the arena is never written after load
//! and any number of models can share it.
//!
//! # Robustness
//!
//! Loading hostile bytes must never panic: every read is bounds-checked
//! against declared (and capped) section lengths, every code and count
//! is range-checked, shape arithmetic is overflow-checked in the arena
//! view constructors, and the trailing checksum is verified before any
//! reconstruction happens.

use crate::error::{ModelArtifactError, Result};
use nfm_bnn::{BinaryGate, BinaryNetwork, Model};
use nfm_rnn::{Cell, DeepRnn, Dense, Gate, GateKind, GruCell, Layer, LstmCell};
use nfm_tensor::activation::Activation;
use nfm_tensor::arena::ArenaU64;
use nfm_tensor::{Matrix, TensorArena, Vector};
use std::io::{Read, Write};
use std::sync::Arc;

/// First eight bytes of every artifact.
pub const MAGIC: [u8; 8] = *b"NFMMODL\0";

/// The format version this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 2;

/// Every tensor's payload offset is a multiple of this.
pub const TENSOR_ALIGN: usize = 64;

const FLAG_HEAD: u32 = 1;
const FLAG_MIRROR: u32 = 1 << 1;
const KNOWN_FLAGS: u32 = FLAG_HEAD | FLAG_MIRROR;

const PRELUDE_LEN: usize = 32;
const DESCRIPTOR_LEN: usize = 12;
const RECORD_LEN: usize = 24;

/// Caps on declared sizes so hostile headers cannot drive huge
/// allocations before the checksum is even checked.
const MAX_META_BYTES: usize = 1 << 24;
const MAX_PAYLOAD_BYTES: u64 = 1 << 33;
const MAX_LAYERS: usize = 1 << 12;
const MAX_DIM: usize = 1 << 24;

// Tensor owners, in canonical record order within their group.
const OWNER_WX: u8 = 0;
const OWNER_WH: u8 = 1;
const OWNER_BIAS: u8 = 2;
const OWNER_PEEPHOLE: u8 = 3;
const OWNER_HEAD_W: u8 = 4;
const OWNER_HEAD_B: u8 = 5;
const OWNER_MIRROR: u8 = 6;

const KIND_F32: u8 = 0;
const KIND_BITS: u8 = 1;

const CELL_LSTM: u8 = 0;
const CELL_GRU: u8 = 1;

fn encode_activation(a: Activation) -> u8 {
    match a {
        Activation::Sigmoid => 0,
        Activation::Tanh => 1,
        Activation::Relu => 2,
        Activation::HardSigmoid => 3,
        Activation::Identity => 4,
    }
}

fn decode_activation(code: u8) -> Result<Activation> {
    Ok(match code {
        0 => Activation::Sigmoid,
        1 => Activation::Tanh,
        2 => Activation::Relu,
        3 => Activation::HardSigmoid,
        4 => Activation::Identity,
        other => {
            return Err(ModelArtifactError::Malformed {
                what: format!("unknown activation code {other}"),
            })
        }
    })
}

fn decode_gate_kind(code: u8) -> Result<GateKind> {
    const ALL: [GateKind; GateKind::COUNT] = [
        GateKind::Input,
        GateKind::Forget,
        GateKind::Candidate,
        GateKind::Output,
        GateKind::Update,
        GateKind::Reset,
    ];
    ALL.get(code as usize)
        .copied()
        .ok_or_else(|| ModelArtifactError::Malformed {
            what: format!("unknown gate kind code {code}"),
        })
}

/// FNV-1a 64 over a byte stream, foldable across sections.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a 64 offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One tensor-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    owner: u8,
    dir: u8,
    gate_kind: u8,
    activation: u8,
    kind: u8,
    layer: u16,
    rows: u32,
    cols: u32,
    offset: u64,
}

impl Record {
    fn write_to(&self, out: &mut Vec<u8>) {
        out.push(self.owner);
        out.push(self.dir);
        out.push(self.gate_kind);
        out.push(self.activation);
        out.push(self.kind);
        out.push(0);
        out.extend_from_slice(&self.layer.to_le_bytes());
        out.extend_from_slice(&self.rows.to_le_bytes());
        out.extend_from_slice(&self.cols.to_le_bytes());
        out.extend_from_slice(&self.offset.to_le_bytes());
    }

    fn parse(bytes: &[u8]) -> Result<Record> {
        if bytes.len() < RECORD_LEN {
            return Err(ModelArtifactError::Truncated {
                what: "tensor table record",
            });
        }
        if bytes[5] != 0 {
            return Err(ModelArtifactError::Malformed {
                what: "non-zero record padding".into(),
            });
        }
        Ok(Record {
            owner: bytes[0],
            dir: bytes[1],
            gate_kind: bytes[2],
            activation: bytes[3],
            kind: bytes[4],
            layer: u16::from_le_bytes([bytes[6], bytes[7]]),
            rows: u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
            cols: u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
            offset: u64::from_le_bytes([
                bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22],
                bytes[23],
            ]),
        })
    }
}

/// Payload builder: appends tensor bytes at 64-byte-aligned offsets.
#[derive(Default)]
struct Payload {
    bytes: Vec<u8>,
}

impl Payload {
    fn align(&mut self) -> u64 {
        let pad = (TENSOR_ALIGN - self.bytes.len() % TENSOR_ALIGN) % TENSOR_ALIGN;
        self.bytes.extend(std::iter::repeat_n(0u8, pad));
        self.bytes.len() as u64
    }

    fn push_f32s(&mut self, values: &[f32]) -> u64 {
        let offset = self.align();
        for v in values {
            self.bytes.extend_from_slice(&v.to_le_bytes());
        }
        offset
    }

    fn push_u64s(&mut self, words: &[u64]) -> u64 {
        let offset = self.align();
        for w in words {
            self.bytes.extend_from_slice(&w.to_le_bytes());
        }
        offset
    }
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
    let layers = network.layers();
    if layers.is_empty() || layers.len() > MAX_LAYERS {
        return Err(ModelArtifactError::Malformed {
            what: format!("layer count {} outside 1..={MAX_LAYERS}", layers.len()),
        });
    }
    let cell_kind = match layers[0].forward_cell() {
        Cell::Lstm(_) => CELL_LSTM,
        Cell::Gru(_) => CELL_GRU,
    };
    let bidirectional = layers[0].is_bidirectional();
    for layer in layers {
        let same_kind = matches!(
            (layer.forward_cell(), cell_kind),
            (Cell::Lstm(_), CELL_LSTM) | (Cell::Gru(_), CELL_GRU)
        );
        if !same_kind || layer.is_bidirectional() != bidirectional {
            return Err(ModelArtifactError::Malformed {
                what: "artifact requires homogeneous cell kind and direction across layers".into(),
            });
        }
    }

    let mut records: Vec<Record> = Vec::new();
    let mut payload = Payload::default();
    let dim = |n: usize, what: &str| -> Result<u32> {
        if n == 0 || n > MAX_DIM {
            return Err(ModelArtifactError::Malformed {
                what: format!("{what} dimension {n} outside 1..={MAX_DIM}"),
            });
        }
        Ok(n as u32)
    };

    let dirs = if bidirectional { 2usize } else { 1 };
    for (k, layer) in layers.iter().enumerate() {
        for d in 0..dirs {
            let cell = if d == 0 {
                layer.forward_cell()
            } else {
                layer
                    .backward_cell()
                    .ok_or_else(|| ModelArtifactError::Malformed {
                        what: format!("layer {k} missing backward cell"),
                    })?
            };
            for kind in cell.gate_kinds() {
                let gate = cell
                    .gate(*kind)
                    .ok_or_else(|| ModelArtifactError::Malformed {
                        what: format!("layer {k} missing {} gate", kind.name()),
                    })?;
                let ids = |owner: u8, rows: u32, cols: u32, offset: u64| Record {
                    owner,
                    dir: d as u8,
                    gate_kind: kind.index() as u8,
                    activation: encode_activation(gate.activation()),
                    kind: KIND_F32,
                    layer: k as u16,
                    rows,
                    cols,
                    offset,
                };
                let rows = dim(gate.neurons(), "gate neurons")?;
                let xc = dim(gate.input_size(), "gate input")?;
                let hc = dim(gate.hidden_size(), "gate hidden")?;
                let off = payload.push_f32s(gate.wx().as_slice());
                records.push(ids(OWNER_WX, rows, xc, off));
                let off = payload.push_f32s(gate.wh().as_slice());
                records.push(ids(OWNER_WH, rows, hc, off));
                let off = payload.push_f32s(gate.bias().as_slice());
                records.push(ids(OWNER_BIAS, rows, 1, off));
                if let Some(p) = gate.peephole() {
                    let off = payload.push_f32s(p.as_slice());
                    records.push(ids(OWNER_PEEPHOLE, rows, 1, off));
                }
            }
        }
    }

    let mut flags = 0u32;
    if let Some(head) = network.head() {
        flags |= FLAG_HEAD;
        let rows = dim(head.output_size(), "head output")?;
        let cols = dim(head.input_size(), "head input")?;
        let act = encode_activation(head.activation());
        let head_rec = |owner: u8, rows: u32, cols: u32, offset: u64| Record {
            owner,
            dir: 0,
            gate_kind: 0,
            activation: act,
            kind: KIND_F32,
            layer: 0,
            rows,
            cols,
            offset,
        };
        let off = payload.push_f32s(head.weights().as_slice());
        records.push(head_rec(OWNER_HEAD_W, rows, cols, off));
        let off = payload.push_f32s(head.bias().as_slice());
        records.push(head_rec(OWNER_HEAD_B, rows, 1, off));
    }

    if let Some(mirror) = mirror {
        flags |= FLAG_MIRROR;
        for (id, gate) in network.gates() {
            let bg = mirror
                .gate(id)
                .filter(|bg| bg.has_shape_of(gate))
                .ok_or_else(|| ModelArtifactError::Malformed {
                    what: format!(
                        "mirror has no gate of its shape for layer={} dir={} kind={}",
                        id.layer,
                        id.direction,
                        id.kind.name()
                    ),
                })?;
            records.push(Record {
                owner: OWNER_MIRROR,
                dir: id.direction as u8,
                gate_kind: id.kind.index() as u8,
                activation: 0,
                kind: KIND_BITS,
                layer: id.layer as u16,
                rows: dim(bg.neurons(), "mirror neurons")?,
                cols: dim(bg.input_size() + bg.hidden_size(), "mirror signs")?,
                offset: payload.push_u64s(bg.sign_block()),
            });
        }
    }

    // Pad the payload tail so the total is a TENSOR_ALIGN multiple (and
    // thus a whole number of arena words).
    payload.align();

    let mut meta = Vec::with_capacity(DESCRIPTOR_LEN + records.len() * RECORD_LEN);
    meta.push(cell_kind);
    meta.push(if bidirectional { 1 } else { 0 });
    meta.push(if flags & FLAG_HEAD != 0 { 1 } else { 0 });
    meta.push(if flags & FLAG_MIRROR != 0 { 1 } else { 0 });
    meta.extend_from_slice(&(layers.len() as u32).to_le_bytes());
    meta.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in &records {
        r.write_to(&mut meta);
    }
    if meta.len() > MAX_META_BYTES {
        return Err(ModelArtifactError::Malformed {
            what: format!("meta section {} exceeds cap {MAX_META_BYTES}", meta.len()),
        });
    }

    let mut prelude = Vec::with_capacity(PRELUDE_LEN);
    prelude.extend_from_slice(&MAGIC);
    prelude.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    prelude.extend_from_slice(&flags.to_le_bytes());
    prelude.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    prelude.extend_from_slice(&0u32.to_le_bytes());
    prelude.extend_from_slice(&(payload.bytes.len() as u64).to_le_bytes());

    let checksum = fnv1a(fnv1a(FNV_BASIS, &meta), &payload.bytes);
    writer.write_all(&prelude)?;
    writer.write_all(&meta)?;
    writer.write_all(&payload.bytes)?;
    writer.write_all(&checksum.to_le_bytes())?;
    Ok((PRELUDE_LEN + meta.len() + payload.bytes.len() + 8) as u64)
}

/// A model loaded from an artifact: the reconstructed network, its
/// optional binary mirror, and the single arena every tensor of both
/// views into.
#[derive(Debug, Clone)]
pub struct LoadedModel {
    /// The reconstructed network; every weight matrix/vector is an
    /// arena view (copy-on-write — reading never copies).
    pub network: DeepRnn,
    /// The binary mirror, when the artifact carried one.
    pub mirror: Option<BinaryNetwork>,
    /// The shared arena holding all tensor bytes.
    pub arena: Arc<TensorArena>,
}

impl LoadedModel {
    /// Total tensor bytes held by the shared arena.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len_bytes()
    }
}

/// A loaded artifact as a servable model version: the mirror the
/// artifact carried is the version's mirror, never rebuilt.
impl From<LoadedModel> for Model {
    fn from(loaded: LoadedModel) -> Model {
        Model::with_mirror(loaded.network, loaded.mirror)
    }
}

/// Byte cursor over the meta section; every read is bounds-checked.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(ModelArtifactError::Truncated { what })?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u32_le(&mut self, what: &'static str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Sequential record reader enforcing the canonical table order.
struct Table {
    records: Vec<Record>,
    at: usize,
}

impl Table {
    fn next(&mut self, what: &'static str) -> Result<Record> {
        let r = self
            .records
            .get(self.at)
            .copied()
            .ok_or(ModelArtifactError::Truncated { what })?;
        self.at += 1;
        Ok(r)
    }

    fn peek(&self) -> Option<Record> {
        self.records.get(self.at).copied()
    }

    fn expect(
        &mut self,
        owner: u8,
        layer: usize,
        dir: usize,
        kind: Option<GateKind>,
        what: &'static str,
    ) -> Result<Record> {
        let r = self.next(what)?;
        let kind_ok = match kind {
            Some(k) => r.gate_kind as usize == k.index(),
            None => true,
        };
        if r.owner != owner || r.layer as usize != layer || r.dir as usize != dir || !kind_ok {
            return Err(ModelArtifactError::Malformed {
                what: format!(
                    "tensor table out of canonical order: expected {what} \
                     (owner {owner}, layer {layer}, dir {dir}), found owner {} layer {} dir {}",
                    r.owner, r.layer, r.dir
                ),
            });
        }
        Ok(r)
    }
}

fn checked_dims(r: &Record, what: &'static str) -> Result<(usize, usize)> {
    let rows = r.rows as usize;
    let cols = r.cols as usize;
    if rows == 0 || rows > MAX_DIM || cols == 0 || cols > MAX_DIM {
        return Err(ModelArtifactError::Malformed {
            what: format!("{what}: shape {rows}x{cols} outside 1..={MAX_DIM}"),
        });
    }
    Ok((rows, cols))
}

fn arena_matrix(arena: &Arc<TensorArena>, r: &Record, what: &'static str) -> Result<Matrix> {
    if r.kind != KIND_F32 {
        return Err(ModelArtifactError::Malformed {
            what: format!("{what}: expected f32 tensor, found kind {}", r.kind),
        });
    }
    let (rows, cols) = checked_dims(r, what)?;
    let offset = usize::try_from(r.offset).map_err(|_| ModelArtifactError::Malformed {
        what: format!("{what}: offset {} exceeds addressable range", r.offset),
    })?;
    Ok(Matrix::from_arena(arena.clone(), offset, rows, cols)?)
}

fn arena_vector(arena: &Arc<TensorArena>, r: &Record, what: &'static str) -> Result<Vector> {
    if r.kind != KIND_F32 || r.cols != 1 {
        return Err(ModelArtifactError::Malformed {
            what: format!("{what}: expected f32 vector (cols=1)"),
        });
    }
    let (rows, _) = checked_dims(r, what)?;
    let offset = usize::try_from(r.offset).map_err(|_| ModelArtifactError::Malformed {
        what: format!("{what}: offset {} exceeds addressable range", r.offset),
    })?;
    Ok(Vector::from_arena(arena.clone(), offset, rows)?)
}

/// Maps one mirror gate's sign block (module docs) as a zero-copy view.
/// `end` is where the block must end: the next tensor's offset, or the
/// payload's length.
fn arena_sign_block(
    arena: &Arc<TensorArena>,
    r: &Record,
    gate: &Gate,
    end: u64,
) -> Result<BinaryGate> {
    let malformed = |what: String| ModelArtifactError::Malformed {
        what: format!("mirror gate layer={} dir={}: {what}", r.layer, r.dir),
    };
    if r.kind != KIND_BITS {
        return Err(malformed(format!(
            "expected sign-bit tensor, found kind {}",
            r.kind
        )));
    }
    let (neurons, isz, hsz) = (gate.neurons(), gate.input_size(), gate.hidden_size());
    if (r.rows as usize, r.cols as usize) != (neurons, isz + hsz) {
        return Err(malformed(format!(
            "shape {}x{} differs from its gate's {neurons}x({isz}+{hsz})",
            r.rows, r.cols
        )));
    }
    let extent = end
        .checked_sub(r.offset)
        .filter(|bytes| bytes % 8 == 0)
        .and_then(|bytes| usize::try_from(bytes / 8).ok())
        .ok_or_else(|| malformed(format!("block at {} does not end at {end}", r.offset)))?;
    let offset = usize::try_from(r.offset)
        .map_err(|_| malformed(format!("offset {} exceeds addressable range", r.offset)))?;
    let view = ArenaU64::new(arena.clone(), offset, extent)?;
    BinaryGate::from_arena(view, neurons, isz, hsz)
        .map_err(|e| malformed(format!("sign block: {e}")))
}

/// Reads one artifact, verifying magic, version, declared lengths and
/// the trailing checksum, then reconstructs the network (and mirror, if
/// present) as zero-copy views into one shared [`TensorArena`].
///
/// # Errors
///
/// Every corruption mode surfaces as a typed [`ModelArtifactError`]
/// (truncation, checksum mismatch, malformed structure, invalid tensor
/// geometry); hostile input never panics and never allocates beyond the
/// format's declared-size caps.
pub fn load(reader: &mut impl Read) -> Result<LoadedModel> {
    ensure_little_endian()?;
    let mut prelude = [0u8; PRELUDE_LEN];
    read_exact(reader, &mut prelude, "prelude")?;
    if prelude[0..8] != MAGIC {
        return Err(ModelArtifactError::BadMagic);
    }
    let version = u32::from_le_bytes([prelude[8], prelude[9], prelude[10], prelude[11]]);
    if version != FORMAT_VERSION {
        return Err(ModelArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let flags = u32::from_le_bytes([prelude[12], prelude[13], prelude[14], prelude[15]]);
    if flags & !KNOWN_FLAGS != 0 {
        return Err(ModelArtifactError::Malformed {
            what: format!("unknown flag bits {:#010x}", flags & !KNOWN_FLAGS),
        });
    }
    let meta_len =
        u32::from_le_bytes([prelude[16], prelude[17], prelude[18], prelude[19]]) as usize;
    let reserved = u32::from_le_bytes([prelude[20], prelude[21], prelude[22], prelude[23]]);
    if reserved != 0 {
        return Err(ModelArtifactError::Malformed {
            what: "non-zero reserved prelude field".into(),
        });
    }
    let payload_len = u64::from_le_bytes([
        prelude[24],
        prelude[25],
        prelude[26],
        prelude[27],
        prelude[28],
        prelude[29],
        prelude[30],
        prelude[31],
    ]);
    if !(DESCRIPTOR_LEN..=MAX_META_BYTES).contains(&meta_len) {
        return Err(ModelArtifactError::Malformed {
            what: format!("meta length {meta_len} outside {DESCRIPTOR_LEN}..={MAX_META_BYTES}"),
        });
    }
    if payload_len > MAX_PAYLOAD_BYTES || payload_len % TENSOR_ALIGN as u64 != 0 {
        return Err(ModelArtifactError::Malformed {
            what: format!(
                "payload length {payload_len} not a {TENSOR_ALIGN}-byte multiple within cap \
                 {MAX_PAYLOAD_BYTES}"
            ),
        });
    }

    let mut meta = vec![0u8; meta_len];
    read_exact(reader, &mut meta, "meta section")?;
    // The single bulk read: all tensor bytes land in one arena.
    let arena = Arc::new(
        TensorArena::read_exact_from(reader, payload_len as usize).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                ModelArtifactError::Truncated { what: "payload" }
            } else {
                ModelArtifactError::Io(e)
            }
        })?,
    );
    let mut stored = [0u8; 8];
    read_exact(reader, &mut stored, "checksum")?;
    let stored = u64::from_le_bytes(stored);
    let computed = fnv1a(fnv1a(FNV_BASIS, &meta), arena.as_bytes());
    if stored != computed {
        return Err(ModelArtifactError::ChecksumMismatch { stored, computed });
    }

    // Descriptor.
    let mut cur = Cursor {
        bytes: &meta,
        at: 0,
    };
    let head_bytes = cur.take(4, "descriptor")?;
    let (cell_code, dir_code, has_head, has_mirror) =
        (head_bytes[0], head_bytes[1], head_bytes[2], head_bytes[3]);
    let layer_count = cur.u32_le("descriptor layer count")? as usize;
    let record_count = cur.u32_le("descriptor record count")? as usize;
    if cell_code > CELL_GRU || dir_code > 1 || has_head > 1 || has_mirror > 1 {
        return Err(ModelArtifactError::Malformed {
            what: format!(
                "descriptor codes out of range (cell {cell_code}, dir {dir_code}, head \
                 {has_head}, mirror {has_mirror})"
            ),
        });
    }
    if (has_head == 1) != (flags & FLAG_HEAD != 0)
        || (has_mirror == 1) != (flags & FLAG_MIRROR != 0)
    {
        return Err(ModelArtifactError::Malformed {
            what: "descriptor flags disagree with prelude flags".into(),
        });
    }
    if layer_count == 0 || layer_count > MAX_LAYERS {
        return Err(ModelArtifactError::Malformed {
            what: format!("layer count {layer_count} outside 1..={MAX_LAYERS}"),
        });
    }
    if record_count != (meta_len - DESCRIPTOR_LEN) / RECORD_LEN
        || record_count * RECORD_LEN != meta_len - DESCRIPTOR_LEN
    {
        return Err(ModelArtifactError::Malformed {
            what: format!("record count {record_count} disagrees with meta length {meta_len}"),
        });
    }
    let mut records = Vec::with_capacity(record_count);
    for _ in 0..record_count {
        records.push(Record::parse(cur.take(RECORD_LEN, "tensor table")?)?);
    }
    let mut table = Table { records, at: 0 };

    // Reconstruct the recurrent stack in canonical order.
    let gate_kinds: &[GateKind] = if cell_code == CELL_LSTM {
        &GateKind::LSTM
    } else {
        &GateKind::GRU
    };
    let dirs = if dir_code == 1 { 2usize } else { 1 };
    let mut layers = Vec::with_capacity(layer_count);
    for k in 0..layer_count {
        let mut cells = Vec::with_capacity(dirs);
        for d in 0..dirs {
            let mut gates = Vec::with_capacity(gate_kinds.len());
            for kind in gate_kinds {
                let wx = table.expect(OWNER_WX, k, d, Some(*kind), "gate wx")?;
                let wh = table.expect(OWNER_WH, k, d, Some(*kind), "gate wh")?;
                let bias = table.expect(OWNER_BIAS, k, d, Some(*kind), "gate bias")?;
                let peephole = match table.peek() {
                    Some(p)
                        if p.owner == OWNER_PEEPHOLE
                            && p.layer as usize == k
                            && p.dir as usize == d
                            && p.gate_kind == wx.gate_kind =>
                    {
                        let p = table.next("gate peephole")?;
                        Some(arena_vector(&arena, &p, "gate peephole")?)
                    }
                    _ => None,
                };
                if decode_gate_kind(wx.gate_kind)? != *kind {
                    return Err(ModelArtifactError::Malformed {
                        what: format!("gate kind {} does not match canonical order", wx.gate_kind),
                    });
                }
                let activation = decode_activation(wx.activation)?;
                gates.push(Gate::new(
                    arena_matrix(&arena, &wx, "gate wx")?,
                    arena_matrix(&arena, &wh, "gate wh")?,
                    arena_vector(&arena, &bias, "gate bias")?,
                    peephole,
                    activation,
                )?);
            }
            let cell = if cell_code == CELL_LSTM {
                let mut it = gates.into_iter();
                let (i, f, g, o) = (
                    it.next().expect("4 LSTM gates"),
                    it.next().expect("4 LSTM gates"),
                    it.next().expect("4 LSTM gates"),
                    it.next().expect("4 LSTM gates"),
                );
                Cell::Lstm(LstmCell::new(i, f, g, o)?)
            } else {
                let mut it = gates.into_iter();
                let (z, r, g) = (
                    it.next().expect("3 GRU gates"),
                    it.next().expect("3 GRU gates"),
                    it.next().expect("3 GRU gates"),
                );
                Cell::Gru(GruCell::new(z, r, g)?)
            };
            cells.push(cell);
        }
        let forward = cells.remove(0);
        let backward = if dirs == 2 {
            Some(cells.remove(0))
        } else {
            None
        };
        layers.push(Layer::new(k, forward, backward)?);
    }

    let head = if has_head == 1 {
        let w = table.expect(OWNER_HEAD_W, 0, 0, None, "head weights")?;
        let b = table.expect(OWNER_HEAD_B, 0, 0, None, "head bias")?;
        let activation = decode_activation(w.activation)?;
        Some(Dense::new(
            arena_matrix(&arena, &w, "head weights")?,
            arena_vector(&arena, &b, "head bias")?,
            activation,
        )?)
    } else {
        None
    };

    let network = DeepRnn::new(layers, head)?;

    let mirror = if has_mirror == 1 {
        let mut gates = std::collections::HashMap::new();
        for (id, gate) in network.gates() {
            let r = table.expect(
                OWNER_MIRROR,
                id.layer,
                id.direction,
                Some(id.kind),
                "mirror sign block",
            )?;
            let end = table.peek().map_or(payload_len, |next| next.offset);
            gates.insert(id, arena_sign_block(&arena, &r, gate, end)?);
        }
        Some(BinaryNetwork::from_gates(gates))
    } else {
        None
    };

    if table.peek().is_some() {
        return Err(ModelArtifactError::Malformed {
            what: "trailing tensor table records after reconstruction".into(),
        });
    }

    Ok(LoadedModel {
        network,
        mirror,
        arena,
    })
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

fn read_exact(reader: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<()> {
    reader.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ModelArtifactError::Truncated { what }
        } else {
            ModelArtifactError::Io(e)
        }
    })
}
