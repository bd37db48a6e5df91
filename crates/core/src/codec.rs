//! Versioned, dependency-free binary encoding for persisted synthesis state,
//! and the one record envelope everything persisted or sent is framed in.
//!
//! The candidate store (`syno-store`) journals operators to disk and reloads
//! them across runs, which needs a serialization format that (a) pulls in no
//! external crates — the build environment has no crates.io access — and
//! (b) is explicitly versioned, so a value written by one build is either
//! read correctly or rejected loudly by another.
//!
//! **Values.** The format is little-endian and minimal: fixed-width
//! integers, length-prefixed strings, and a [`FORMAT_VERSION`] header on
//! every top-level value; decoders accept that version only. A [`PGraph`]
//! is **not** serialized structurally (its arena ids and coordinate table
//! are history-dependent); instead we persist its *recipe*: the variable
//! table, the operator specification, and the exact action sequence.
//! Decoding replays the actions through [`PGraph::apply`], which reproduces
//! the identical graph — same frontier, same weights, same
//! [`state_hash`](PGraph::state_hash)/[`content_hash`](PGraph::content_hash)
//! — while re-validating every step against the shape algebra, so a corrupt
//! or hand-edited journal can never materialize an ill-formed graph.
//!
//! **The envelope.** `[tag u8][len u32][payload][checksum u32]` is written
//! by [`put_frame`] and taken apart by [`split_frame`], and by nothing
//! else: the store's journal segments and the `syno-serve` wire protocol
//! both call these two, each passing its own payload cap and giving the tag
//! byte its own meaning. The length cap, the
//! truncation rule and the checksum are therefore decided — and tested,
//! in `tests/properties.rs` — in one place. [`write_frame`] and
//! [`read_frame`] are the blocking-stream conveniences over them.
//!
//! # Examples
//!
//! ```
//! use syno_core::prelude::*;
//! use syno_core::codec;
//!
//! let mut vars = VarTable::new();
//! let h = vars.declare("H", VarKind::Primary);
//! let s = vars.declare("s", VarKind::Coefficient);
//! vars.push_valuation(vec![(h, 16), (s, 2)]);
//! let vars = vars.into_shared();
//! let spec = OperatorSpec::new(
//!     TensorShape::new(vec![Size::var(h)]),
//!     TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
//! );
//! let g = Enumerator::new(SynthConfig::auto(&vars, 3))
//!     .synthesis(&vars, &spec)
//!     .next()
//!     .unwrap()
//!     .unwrap();
//!
//! let bytes = codec::encode_graph(&g);
//! let back = codec::decode_graph(&bytes).unwrap();
//! assert_eq!(back.content_hash(), g.content_hash());
//! assert_eq!(back.render(), g.render());
//! ```

use crate::graph::{CoordId, PGraph};
use crate::primitive::Action;
use crate::size::{Size, MAX_VARS};
use crate::spec::{OperatorSpec, TensorShape};
use crate::var::{VarKind, VarTable};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Version of the binary layout. Bump on **any** change to the encoding
/// below, to the stable hashing chain
/// ([`crate::stable::StableHasher`] → [`PGraph::content_hash`]), *or* to
/// the semantics of persisted records built on these primitives: persisted
/// content keys are only meaningful while all three stay fixed.
///
/// Decoders accept exactly this version. A value written by any other
/// build is refused with [`CodecError::Version`] and never reinterpreted:
/// a store is a cache of work this repository can redo, so rolling the
/// repository back (or re-running the search) replaces a migration path.
pub const FORMAT_VERSION: u32 = 4;

/// Shared header check for decoders.
fn check_version(found: u32) -> Result<(), CodecError> {
    if found == FORMAT_VERSION {
        Ok(())
    } else {
        Err(CodecError::Version { found })
    }
}

/// Errors surfaced while decoding persisted bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ended before the value was complete.
    UnexpectedEof {
        /// Offset at which more bytes were required.
        at: usize,
    },
    /// An enum tag byte was out of range.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8 {
        /// Offset of the string payload.
        at: usize,
    },
    /// The format-version header does not match [`FORMAT_VERSION`].
    Version {
        /// The version found in the header.
        found: u32,
    },
    /// The bytes decoded structurally but describe an invalid value (e.g.
    /// an action sequence [`PGraph::apply`] rejects on replay).
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { at } => write!(f, "unexpected end of input at byte {at}"),
            CodecError::BadTag { what, tag } => write!(f, "invalid {what} tag {tag:#04x}"),
            CodecError::BadUtf8 { at } => write!(f, "invalid utf-8 string at byte {at}"),
            CodecError::Version { found } => write!(
                f,
                "unsupported format version {found} (this build reads {FORMAT_VERSION})"
            ),
            CodecError::Invalid(why) => write!(f, "invalid persisted value: {why}"),
        }
    }
}

impl Error for CodecError {}

/// Appends primitive values to a growable little-endian byte buffer.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i32`, little-endian two's complement.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a sequence, `[count u32][items…]`, each item by `put`: the one
    /// writer of that layout, as [`Decoder::get_seq`] is its one reader.
    pub fn put_seq<T>(
        &mut self,
        items: impl IntoIterator<Item = T>,
        mut put: impl FnMut(&mut Encoder, T),
    ) {
        let at = self.buf.len();
        self.put_u32(0);
        let mut count = 0u32;
        for item in items {
            put(self, item);
            count += 1;
        }
        self.buf[at..at + 4].copy_from_slice(&count.to_le_bytes());
    }

    /// Writes a [`Size`]: constant factor then `(var, exponent)` pairs.
    pub fn put_size(&mut self, size: &Size) {
        let (num, den) = size.constant_factor();
        self.put_u64(num);
        self.put_u64(den);
        self.put_seq(size.powers(), |e, (var, exp)| {
            e.put_u32(var.index() as u32);
            e.put_i32(exp);
        });
    }
}

/// Reads primitive values back out of a byte slice.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof { at: self.pos });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i32`.
    pub fn get_i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let at = self.pos;
        let bytes = self.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8 { at })
    }

    /// Reads a sequence written by [`Encoder::put_seq`], each item by `get`.
    ///
    /// `min_item_bytes` is the fewest bytes one item can encode to. A count
    /// that even at that width could not fit in what is left of the input is
    /// refused *before* anything is reserved or read, so a decoder allocates
    /// at most `size_of::<T>() / min_item_bytes` times the bytes it was given,
    /// whatever the count claims.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] for such a count,
    /// [`CodecError::Invalid`] for a non-empty sequence of zero-width items
    /// (no input bounds it), and whatever `get` returns. A `get` that folds
    /// each item into its caller's state returns `()`; a `Vec<()>` costs
    /// nothing.
    pub fn get_seq<T, E: From<CodecError>>(
        &mut self,
        min_item_bytes: usize,
        mut get: impl FnMut(&mut Decoder<'a>) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let at = self.pos;
        let count = self.get_u32()? as usize;
        if count > 0 && min_item_bytes == 0 {
            return Err(CodecError::Invalid(format!("{count} zero-width sequence items")).into());
        }
        if count.checked_mul(min_item_bytes).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(CodecError::UnexpectedEof { at }.into());
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(get(self)?);
        }
        Ok(items)
    }

    /// Reads a [`Size`] written by [`Encoder::put_size`].
    ///
    /// Variable indices are interpreted against `vars` (the table the size
    /// was encoded under, reconstructed first).
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] for a zero constant, an unknown variable, or
    /// an exponent — one pair's, or a variable's total — outside `i8`.
    pub fn get_size(&mut self, vars: &VarTable) -> Result<Size, CodecError> {
        let num = self.get_u64()?;
        let den = self.get_u64()?;
        if num == 0 || den == 0 {
            return Err(CodecError::Invalid("size constant must be positive".into()));
        }
        let mut size = Size::constant(num).div(&Size::constant(den));
        self.get_seq(8, |d| {
            let index = d.get_u32()? as usize;
            let exp = d.get_i32()?;
            let var = vars.iter().nth(index).ok_or_else(|| {
                CodecError::Invalid(format!("variable index {index} out of range"))
            })?;
            let exp = i8::try_from(exp)
                .map_err(|_| CodecError::Invalid(format!("size exponent {exp} outside i8")))?;
            size = size
                .checked_mul(&Size::var_pow(var, exp.into()))
                .ok_or_else(|| CodecError::Invalid("size exponent overflows i8".into()))?;
            Ok::<_, CodecError>(())
        })?;
        Ok(size)
    }
}

fn put_var_table(e: &mut Encoder, vars: &VarTable) {
    e.put_seq(vars.iter(), |e, var| {
        e.put_str(vars.name(var));
        e.put_u8(match vars.kind(var) {
            VarKind::Primary => 0,
            VarKind::Coefficient => 1,
        });
    });
    e.put_seq(0..vars.valuation_count(), |e, valuation| {
        for var in vars.iter() {
            e.put_u64(vars.value(valuation, var));
        }
    });
}

fn get_var_table(d: &mut Decoder<'_>) -> Result<VarTable, CodecError> {
    let mut vars = VarTable::new();
    // A variable is at least an empty name's length prefix and a kind byte.
    let ids = d.get_seq(5, |d| {
        let name = d.get_str()?;
        let kind = match d.get_u8()? {
            0 => VarKind::Primary,
            1 => VarKind::Coefficient,
            tag => return Err(CodecError::BadTag { what: "VarKind", tag }),
        };
        if vars.find(&name).is_some() {
            return Err(CodecError::Invalid(format!("duplicate variable '{name}'")));
        }
        if vars.len() == MAX_VARS {
            return Err(CodecError::Invalid(format!("more than {MAX_VARS} variables")));
        }
        Ok(vars.declare(&name, kind))
    })?;
    // A valuation row is one value per variable — zero-width, and refused,
    // when the table declares none.
    d.get_seq(8 * ids.len(), |d| {
        let row = ids.iter().map(|&id| match d.get_u64()? {
            0 => Err(CodecError::Invalid("valuation value must be positive".into())),
            value => Ok((id, value)),
        });
        vars.push_valuation(row.collect::<Result<_, _>>()?);
        Ok::<_, CodecError>(())
    })?;
    Ok(vars)
}

fn put_shape(e: &mut Encoder, shape: &TensorShape) {
    e.put_seq(shape.dims(), Encoder::put_size);
}

/// The fewest bytes a [`Size`] encodes to: two constants and an empty
/// power list.
const MIN_SIZE_BYTES: usize = 8 + 8 + 4;

fn get_shape(d: &mut Decoder<'_>, vars: &VarTable) -> Result<TensorShape, CodecError> {
    Ok(TensorShape::new(d.get_seq(MIN_SIZE_BYTES, |d| d.get_size(vars))?))
}

fn put_spec(e: &mut Encoder, spec: &OperatorSpec) {
    put_shape(e, &spec.input);
    put_shape(e, &spec.output);
}

fn get_spec(d: &mut Decoder<'_>, vars: &VarTable) -> Result<OperatorSpec, CodecError> {
    let input = get_shape(d, vars)?;
    let output = get_shape(d, vars)?;
    Ok(OperatorSpec::new(input, output))
}

fn put_action(e: &mut Encoder, action: &Action) {
    match action {
        Action::Split { lhs, rhs } => {
            e.put_u8(0);
            e.put_u32(lhs.index() as u32);
            e.put_u32(rhs.index() as u32);
        }
        Action::Merge { coord, block } => {
            e.put_u8(1);
            e.put_u32(coord.index() as u32);
            e.put_size(block);
        }
        Action::Shift { coord } => {
            e.put_u8(2);
            e.put_u32(coord.index() as u32);
        }
        Action::Expand { coord } => {
            e.put_u8(3);
            e.put_u32(coord.index() as u32);
        }
        Action::Unfold { base, window } => {
            e.put_u8(4);
            e.put_u32(base.index() as u32);
            e.put_u32(window.index() as u32);
        }
        Action::Stride { coord, stride } => {
            e.put_u8(5);
            e.put_u32(coord.index() as u32);
            e.put_size(stride);
        }
        Action::Reduce { domain } => {
            e.put_u8(6);
            e.put_size(domain);
        }
        Action::Share { coord, weight } => {
            e.put_u8(7);
            e.put_u32(coord.index() as u32);
            e.put_u32(*weight as u32);
        }
        Action::MatchWeight { coord, weight } => {
            e.put_u8(8);
            e.put_u32(coord.index() as u32);
            e.put_u32(*weight as u32);
        }
    }
}

fn get_action(d: &mut Decoder<'_>, vars: &VarTable) -> Result<Action, CodecError> {
    let coord = |d: &mut Decoder<'_>| -> Result<CoordId, CodecError> {
        Ok(CoordId(d.get_u32()?))
    };
    Ok(match d.get_u8()? {
        0 => Action::Split {
            lhs: coord(d)?,
            rhs: coord(d)?,
        },
        1 => Action::Merge {
            coord: coord(d)?,
            block: d.get_size(vars)?,
        },
        2 => Action::Shift { coord: coord(d)? },
        3 => Action::Expand { coord: coord(d)? },
        4 => Action::Unfold {
            base: coord(d)?,
            window: coord(d)?,
        },
        5 => Action::Stride {
            coord: coord(d)?,
            stride: d.get_size(vars)?,
        },
        6 => Action::Reduce {
            domain: d.get_size(vars)?,
        },
        7 => Action::Share {
            coord: coord(d)?,
            weight: d.get_u32()? as usize,
        },
        8 => Action::MatchWeight {
            coord: coord(d)?,
            weight: d.get_u32()? as usize,
        },
        tag => return Err(CodecError::BadTag { what: "Action", tag }),
    })
}

/// Encodes an operator specification (with its variable table) as a
/// standalone versioned value.
pub fn encode_spec(vars: &VarTable, spec: &OperatorSpec) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(FORMAT_VERSION);
    put_var_table(&mut e, vars);
    put_spec(&mut e, spec);
    e.into_bytes()
}

/// Decodes a specification written by [`encode_spec`].
///
/// # Errors
///
/// [`CodecError::Version`] on a header mismatch, and the usual structural
/// errors on truncated or corrupt bytes.
pub fn decode_spec(bytes: &[u8]) -> Result<(Arc<VarTable>, OperatorSpec), CodecError> {
    let mut d = Decoder::new(bytes);
    check_version(d.get_u32()?)?;
    let vars = get_var_table(&mut d)?;
    let spec = get_spec(&mut d, &vars)?;
    Ok((vars.into_shared(), spec))
}

/// Encodes a complete or partial [`PGraph`] as its replayable recipe:
/// format version, variable table, specification, action sequence.
pub fn encode_graph(graph: &PGraph) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(FORMAT_VERSION);
    put_var_table(&mut e, graph.vars());
    put_spec(&mut e, graph.spec());
    e.put_seq(graph.nodes(), |e, node| put_action(e, &node.action));
    e.into_bytes()
}

/// Decodes a graph written by [`encode_graph`] by replaying its actions.
///
/// The result is a fresh graph over a fresh (equal) variable table with the
/// same semantics, rendering, and
/// [`content_hash`](PGraph::content_hash) as the encoded one.
///
/// # Errors
///
/// [`CodecError::Version`] on a header mismatch; [`CodecError::Invalid`]
/// when a persisted action no longer applies (a corrupt journal, or bytes
/// produced by an incompatible build that slipped past the version check).
pub fn decode_graph(bytes: &[u8]) -> Result<PGraph, CodecError> {
    let mut d = Decoder::new(bytes);
    check_version(d.get_u32()?)?;
    let vars = get_var_table(&mut d)?;
    let spec = get_spec(&mut d, &vars)?;
    let vars = vars.into_shared();
    let mut graph = PGraph::new(Arc::clone(&vars), spec);
    // Bounded by the tag byte alone, so that a bad tag is reported as one.
    d.get_seq(1, |d| {
        let action = get_action(d, &vars)?;
        graph = graph.apply(&action).map_err(|e| {
            CodecError::Invalid(format!("action {} failed to replay: {e}", graph.len()))
        })?;
        Ok::<_, CodecError>(())
    })?;
    Ok(graph)
}

// ---------------------------------------------------------------------------
// The record envelope — one framing for the journal and the wire.
// ---------------------------------------------------------------------------

/// Bytes of an envelope before its payload: the tag and the length prefix.
const FRAME_HEADER: usize = 5;
/// Bytes of an envelope around its payload: header plus checksum.
const FRAME_OVERHEAD: usize = FRAME_HEADER + 4;

/// Errors surfaced while taking a frame off a buffer or a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The stream ended mid-frame (a torn write or dropped connection).
    Truncated,
    /// The length prefix exceeds the reader's cap.
    TooLarge {
        /// The claimed payload length.
        len: u32,
    },
    /// The checksum does not match — bytes were corrupted, the write was
    /// torn, or the writer speaks a different framing.
    BadChecksum,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport failed: {e}"),
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::TooLarge { len } => {
                write!(f, "frame payload of {len} bytes exceeds the reader's limit")
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
        }
    }
}

impl Error for FrameError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The low 32 bits of FNV-1a ([`StableHasher`](crate::stable::StableHasher))
/// over the tag byte then the payload.
fn frame_checksum(tag: u8, payload: &[u8]) -> u32 {
    use std::hash::Hasher;
    let mut h = crate::stable::StableHasher::new();
    h.write(&[tag]);
    h.write(payload);
    h.finish() as u32
}

/// Appends one frame to `buf`: `[tag u8][len u32][payload][checksum u32]`,
/// all little-endian. What the tag means is the caller's business (a
/// journal record kind, a wire frame kind).
///
/// # Panics
///
/// When `payload` is longer than the `u32` length prefix can say.
pub fn put_frame(buf: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload fits its u32 length prefix");
    buf.reserve(payload.len() + FRAME_OVERHEAD);
    buf.push(tag);
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    buf.extend_from_slice(&frame_checksum(tag, payload).to_le_bytes());
}

/// The payload length a frame header announces — the one place a length
/// prefix meets a cap.
fn payload_len(header: &[u8], max_payload: u32) -> Result<usize, FrameError> {
    let len = u32::from_le_bytes(header[1..FRAME_HEADER].try_into().expect("4-byte length"));
    if len > max_payload {
        return Err(FrameError::TooLarge { len });
    }
    Ok(len as usize)
}

/// Splits one complete frame off the front of `buf`: `(tag, payload,
/// bytes consumed)`, or `Ok(None)` when `buf` is a strict prefix of a frame
/// and more bytes are needed.
///
/// # Errors
///
/// [`FrameError::TooLarge`] as soon as the length prefix is readable and
/// exceeds `max_payload` — before the claimed payload arrives, so a hostile
/// length never sizes a buffer; [`FrameError::BadChecksum`] when the whole
/// frame is present and does not verify.
#[allow(clippy::type_complexity)] // (tag, payload, consumed): one frame, nothing to name
pub fn split_frame(
    buf: &[u8],
    max_payload: u32,
) -> Result<Option<(u8, &[u8], usize)>, FrameError> {
    let Some(header) = buf.get(..FRAME_HEADER) else {
        return Ok(None);
    };
    let len = payload_len(header, max_payload)?;
    // (`checked_add`: a 32-bit `usize` cannot hold every `u32` length plus
    // the overhead, and such a frame cannot be in memory either.)
    let Some(frame) = len.checked_add(FRAME_OVERHEAD).and_then(|total| buf.get(..total)) else {
        return Ok(None);
    };
    let (tag, (payload, checksum)) = (header[0], frame[FRAME_HEADER..].split_at(len));
    if checksum != frame_checksum(tag, payload).to_le_bytes() {
        return Err(FrameError::BadChecksum);
    }
    Ok(Some((tag, payload, frame.len())))
}

/// Writes one [`put_frame`] frame to a stream and flushes it, so the peer
/// observes it promptly.
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> Result<(), FrameError> {
    let mut frame = Vec::new();
    put_frame(&mut frame, tag, payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame off a blocking stream: `(tag, payload)`, or `Ok(None)`
/// on a clean end-of-stream (the peer closed the connection *between*
/// frames).
///
/// # Errors
///
/// [`FrameError::Truncated`] when the stream ends mid-frame,
/// [`FrameError::Io`] on transport failure, and whatever [`split_frame`]
/// refuses.
pub fn read_frame(
    r: &mut impl Read,
    max_payload: u32,
) -> Result<Option<(u8, Vec<u8>)>, FrameError> {
    let mut buf = vec![0u8; FRAME_HEADER];
    // A zero-byte first read is a clean EOF; anything shorter than a
    // header after that died mid-frame.
    let mut filled = 0;
    while filled < FRAME_HEADER {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    // Only a vetted length sizes the rest of the read.
    let len = payload_len(&buf, max_payload)?;
    buf.resize(len + FRAME_OVERHEAD, 0);
    r.read_exact(&mut buf[FRAME_HEADER..]).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })?;
    let (tag, ..) = split_frame(&buf, max_payload)?.expect("the whole frame was read");
    buf.truncate(FRAME_HEADER + len);
    buf.drain(..FRAME_HEADER);
    Ok(Some((tag, buf)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{Enumerator, SynthConfig};

    fn pool_setup() -> (Arc<VarTable>, OperatorSpec) {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let s = vars.declare("s", VarKind::Coefficient);
        vars.push_valuation(vec![(h, 16), (s, 2)]);
        vars.push_valuation(vec![(h, 32), (s, 2)]);
        let vars = vars.into_shared();
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(h)]),
            TensorShape::new(vec![Size::var(h).div(&Size::var(s))]),
        );
        (vars, spec)
    }

    #[test]
    fn primitive_values_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX);
        e.put_i32(-42);
        e.put_f64(0.25);
        e.put_str("syno");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u8().unwrap(), 7);
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_i32().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap(), 0.25);
        assert_eq!(d.get_str().unwrap(), "syno");
        assert_eq!(d.remaining(), 0);
        assert!(d.get_u8().is_err());
    }

    #[test]
    fn sizes_round_trip() {
        let (vars, _) = pool_setup();
        let h = vars.find("H").unwrap();
        let s = vars.find("s").unwrap();
        for size in [
            Size::one(),
            Size::constant(6),
            Size::var(h),
            Size::var(h).div(&Size::var(s)),
            Size::constant(3).mul(&Size::var_pow(s, -2)).mul(&Size::var(h)),
        ] {
            let mut e = Encoder::new();
            e.put_size(&size);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            assert_eq!(d.get_size(&vars).unwrap(), size);
        }
    }

    #[test]
    fn spec_round_trips_with_vars() {
        let (vars, spec) = pool_setup();
        let bytes = encode_spec(&vars, &spec);
        let (vars2, spec2) = decode_spec(&bytes).unwrap();
        assert_eq!(spec2, spec);
        assert_eq!(vars2.len(), vars.len());
        assert_eq!(vars2.valuation_count(), vars.valuation_count());
        assert_eq!(spec2.fingerprint(&vars2), spec.fingerprint(&vars));
    }

    #[test]
    fn graphs_round_trip_by_replay() {
        let (vars, spec) = pool_setup();
        let enumerator = Enumerator::new(SynthConfig::auto(&vars, 3));
        let mut count = 0;
        for item in enumerator.synthesis(&vars, &spec).take(12) {
            let graph = item.unwrap();
            let bytes = encode_graph(&graph);
            let back = decode_graph(&bytes).unwrap();
            assert_eq!(back.render(), graph.render());
            assert_eq!(back.state_hash(), graph.state_hash());
            assert_eq!(back.content_hash(), graph.content_hash());
            assert_eq!(back.len(), graph.len());
            count += 1;
        }
        assert!(count > 0);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let (vars, spec) = pool_setup();
        let graph = PGraph::new(Arc::clone(&vars), spec);
        let mut bytes = encode_graph(&graph);
        bytes[0] = 0xfe; // clobber the version header
        assert!(matches!(
            decode_graph(&bytes),
            Err(CodecError::Version { .. })
        ));
        // Neighbouring versions are refused both ways: nothing newer is
        // assumed compatible, nothing older is still decoded.
        for version in [FORMAT_VERSION + 1, FORMAT_VERSION - 1, 1] {
            let mut bytes = encode_graph(&graph);
            bytes[..4].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_graph(&bytes).unwrap_err(),
                CodecError::Version { found: version }
            );
            let mut bytes = encode_spec(&vars, graph.spec());
            bytes[..4].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_spec(&bytes).unwrap_err(),
                CodecError::Version { found: version }
            );
        }
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let (vars, spec) = pool_setup();
        let enumerator = Enumerator::new(SynthConfig::auto(&vars, 3));
        let graph = enumerator
            .synthesis(&vars, &spec)
            .next()
            .unwrap()
            .unwrap();
        let bytes = encode_graph(&graph);
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_graph(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut stream = Vec::new();
        for tag in 0..19u8 {
            write_frame(&mut stream, tag, &vec![tag; tag as usize * 3]).unwrap();
        }
        let mut reader = &stream[..];
        for tag in 0..19u8 {
            let (got, payload) = read_frame(&mut reader, 64).unwrap().expect("frame present");
            assert_eq!(got, tag);
            assert_eq!(payload, vec![tag; tag as usize * 3]);
        }
        assert!(read_frame(&mut reader, 64).unwrap().is_none(), "clean EOF");

        // A stream that dies mid-frame is not a clean EOF…
        let last = &stream[stream.len() - (18 * 3 + 9)..];
        for cut in [1, 4, 5, last.len() - 1] {
            assert!(
                matches!(read_frame(&mut &last[..cut], 64), Err(FrameError::Truncated)),
                "cut at {cut}"
            );
        }
        // …and the cap holds on the blocking path: the empty first frame
        // passes a cap of 2, the 3-byte second one does not.
        let mut reader = &stream[..];
        assert!(matches!(read_frame(&mut reader, 2), Ok(Some((0, _)))));
        assert!(matches!(
            read_frame(&mut reader, 2),
            Err(FrameError::TooLarge { len: 3 })
        ));
    }

    /// Each payload claims 4 Gi items in a few bytes. Believed, the first
    /// reserves 16 GB of variable ids, the second 171 GB of `Size`s, and the
    /// third loops over rows no input backs — aborts no caller can catch.
    #[test]
    fn hostile_counts_are_typed_errors() {
        let words = |words: &[u32]| -> Vec<u8> {
            words.iter().flat_map(|w| w.to_le_bytes()).collect()
        };
        let variables = words(&[FORMAT_VERSION, u32::MAX]);
        let rank = words(&[FORMAT_VERSION, 0, 0, u32::MAX]);
        let rows = words(&[FORMAT_VERSION, 0, u32::MAX]);
        for decode in [
            |b: &[u8]| decode_spec(b).map(drop),
            |b: &[u8]| decode_graph(b).map(drop),
        ] {
            assert_eq!(decode(&variables), Err(CodecError::UnexpectedEof { at: 4 }));
            assert_eq!(decode(&rank), Err(CodecError::UnexpectedEof { at: 12 }));
            assert!(matches!(decode(&rows), Err(CodecError::Invalid(_))));
        }
    }

    /// A spec over `count` primaries valued 1, whose one input dimension
    /// carries the raw `(variable, exponent)` pairs `powers`.
    fn raw_spec(count: usize, powers: &[(u32, i32)]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32(FORMAT_VERSION);
        e.put_seq(0..count, |e, i| {
            e.put_str(&format!("v{i}"));
            e.put_u8(0);
        });
        e.put_seq([()], |e, ()| (0..count).for_each(|_| e.put_u64(1)));
        e.put_seq([()], |e, ()| {
            e.put_u64(1);
            e.put_u64(1);
            e.put_seq(powers, |e, &(var, exp)| {
                e.put_u32(var);
                e.put_i32(exp);
            });
        });
        e.put_u32(0);
        e.into_bytes()
    }

    #[test]
    fn oversized_tables_and_exponents_are_typed_errors() {
        assert!(decode_spec(&raw_spec(MAX_VARS, &[(0, 1)])).is_ok());
        assert!(decode_spec(&raw_spec(1, &[(0, -128), (0, 127)])).is_ok());
        assert!(matches!(
            decode_spec(&raw_spec(MAX_VARS + 1, &[(0, 1)])),
            Err(CodecError::Invalid(_))
        ));
        // `v0^i32::MAX` once decoded, and then each `eval` (`v0` = 1) spun
        // through `i32::MAX` multiplications by 1. A variable's total counts
        // too: `v0^100 · v0^28` is `v0^128`.
        let hostile: [&[(u32, i32)]; 4] =
            [&[(0, 128)], &[(0, i32::MAX)], &[(0, -129)], &[(0, 100), (0, 28)]];
        for powers in hostile {
            let decoded = decode_spec(&raw_spec(1, powers));
            assert!(matches!(decoded, Err(CodecError::Invalid(_))), "{powers:?}");
        }
    }

    /// Two reductions over `H·one^exp` (`one` = 1, so each is a valid
    /// domain of 4) and a `Split` of the two: past `i8`, a typed refusal.
    #[test]
    fn split_past_the_exponent_range_is_a_typed_error() {
        let mut vars = VarTable::new();
        let h = vars.declare("H", VarKind::Primary);
        let one = vars.declare("one", VarKind::Coefficient);
        vars.push_valuation(vec![(h, 4), (one, 1)]);
        let spec = OperatorSpec::new(
            TensorShape::new(vec![Size::var(h)]),
            TensorShape::new(vec![Size::var(h)]),
        );
        let recipe = |exp: i32| {
            let domain = Size::var(h).mul(&Size::var_pow(one, exp));
            let reduce = Action::Reduce { domain };
            let split = Action::Split {
                lhs: CoordId(1),
                rhs: CoordId(2),
            };
            let mut e = Encoder::new();
            e.put_u32(FORMAT_VERSION);
            put_var_table(&mut e, &vars);
            put_spec(&mut e, &spec);
            e.put_seq([reduce.clone(), reduce, split], |e, a| put_action(e, &a));
            decode_graph(&e.into_bytes())
        };
        assert!(recipe(63).is_ok());
        let err = recipe(127).unwrap_err();
        assert!(
            matches!(&err, CodecError::Invalid(why) if why.contains("size range")),
            "{err}"
        );
    }

    #[test]
    fn bad_action_tag_is_a_typed_error() {
        let (vars, spec) = pool_setup();
        let mut e = Encoder::new();
        e.put_u32(FORMAT_VERSION);
        put_var_table(&mut e, &vars);
        put_spec(&mut e, &spec);
        e.put_u32(1);
        e.put_u8(0xee); // no such action
        let err = decode_graph(&e.into_bytes()).unwrap_err();
        assert!(matches!(err, CodecError::BadTag { what: "Action", .. }));
    }
}
