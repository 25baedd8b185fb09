//! In-tree byte codec for [`NetworkSnapshot`] and the frames of the durable
//! batch journal ([`crate::journal`]).
//!
//! The workspace is dependency-free, so the wire format is hand-rolled and
//! deliberately simple: a versioned header, little-endian fixed-width
//! integers, length-prefixed sequences, and an FNV-1a checksum over the
//! payload. The frame is self-contained:
//!
//! ```text
//! "BDSN" | version: u16 LE | payload | fnv1a64(payload): u64 LE
//! ```
//!
//! The payload is the snapshot's fields in order: node states, pending
//! outboxes, accumulated [`RunStats`], and the initialisation flag. Node and
//! message types supply their own [`ByteCodec`] impls (the engine cannot
//! know their layout); everything else ships impls here.
//!
//! Decoding is strict: wrong magic, unknown version, short input, checksum
//! mismatch, unknown enum tags and leftover bytes each fail with a distinct
//! [`CodecError`] instead of producing a half-read snapshot.
//!
//! Two framing entry points sit on top of the same format:
//!
//! * [`decode_snapshot`] reads exactly **one** frame and rejects leftover
//!   bytes with [`CodecError::TrailingBytes`] — the right contract for a
//!   single checkpoint file.
//! * [`FrameReader`] iterates over **concatenated** frames in one buffer —
//!   the contract of an append-only journal ([`crate::journal`]), where each
//!   append is a self-contained frame. Errors stay typed per frame, and a
//!   partial trailing frame (a crash mid-append) surfaces as
//!   [`CodecError::Truncated`] inside a [`FrameError`] carrying the byte
//!   offset of the broken frame, so a journal can salvage the valid prefix.

use crate::network::NetworkSnapshot;
use crate::node::{NodeAlgorithm, Outgoing};
use crate::trace::{RoundStats, RunStats};

const MAGIC: &[u8; 4] = b"BDSN";
const VERSION: u16 = 1;
/// Bytes of framing around the payload: magic + version + checksum.
const FRAME_BYTES: usize = 4 + 2 + 8;

/// Why decoding failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input does not start with the snapshot magic.
    BadMagic,
    /// The frame's version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The input ended before the structure was complete.
    Truncated,
    /// The payload checksum does not match — the bytes were corrupted.
    Checksum,
    /// A structurally invalid value (unknown tag, impossible count, …).
    Malformed(&'static str),
    /// The payload parsed but bytes were left over.
    TrailingBytes,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a snapshot frame (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {VERSION})"
                )
            }
            CodecError::Truncated => write!(f, "snapshot frame is truncated"),
            CodecError::Checksum => write!(f, "snapshot payload failed its checksum"),
            CodecError::Malformed(what) => write!(f, "malformed snapshot payload: {what}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after the snapshot payload"),
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a, 64-bit — cheap, dependency-free corruption detection.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Consumes exactly `N` bytes from the front of `input`.
fn take_array<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let bytes = *input;
    let (head, tail) = bytes
        .split_first_chunk::<N>()
        .ok_or(CodecError::Truncated)?;
    *input = tail;
    Ok(*head)
}

/// A type that can write itself to bytes and read itself back. Implement it
/// for node-algorithm state and message types to make their snapshots
/// serialisable with [`encode_snapshot`] / [`decode_snapshot`].
pub trait ByteCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reads one value from the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;
}

impl ByteCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        take_array(input).map(u64::from_le_bytes)
    }
}

impl ByteCodec for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        take_array(input).map(u32::from_le_bytes)
    }
}

impl ByteCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        usize::try_from(u64::decode(input)?)
            .map_err(|_| CodecError::Malformed("count exceeds the platform's usize"))
    }
}

impl ByteCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take_array(input)? {
            [0] => Ok(false),
            [1] => Ok(true),
            _ => Err(CodecError::Malformed("boolean tag out of range")),
        }
    }
}

impl<T: ByteCodec> ByteCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take_array(input)? {
            [0] => Ok(None),
            [1] => Ok(Some(T::decode(input)?)),
            _ => Err(CodecError::Malformed("option tag out of range")),
        }
    }
}

impl<T: ByteCodec> ByteCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        // Cap the pre-allocation by what the input could possibly hold so a
        // corrupt length cannot trigger an absurd allocation.
        let mut items = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            items.push(T::decode(input)?);
        }
        Ok(items)
    }
}

impl<M: ByteCodec> ByteCodec for Outgoing<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Outgoing::Silent => out.push(0),
            Outgoing::Broadcast(m) => {
                out.push(1);
                m.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match take_array(input)? {
            [0] => Ok(Outgoing::Silent),
            [1] => Ok(Outgoing::Broadcast(M::decode(input)?)),
            // Tag 2 once held per-neighbour messages. Never reuse it, so a
            // frame that carries it stays a typed error.
            _ => Err(CodecError::Malformed("outgoing tag out of range")),
        }
    }
}

impl ByteCodec for RoundStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.senders.encode(out);
        self.deliveries.encode(out);
        self.bits_sent.encode(out);
        self.max_message_bits.encode(out);
        self.dropped_deliveries.encode(out);
        self.crashed.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(RoundStats {
            round: usize::decode(input)?,
            senders: usize::decode(input)?,
            deliveries: usize::decode(input)?,
            bits_sent: usize::decode(input)?,
            max_message_bits: usize::decode(input)?,
            dropped_deliveries: usize::decode(input)?,
            crashed: usize::decode(input)?,
        })
    }
}

impl ByteCodec for RunStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.rounds.encode(out);
        self.total_sends.encode(out);
        self.total_deliveries.encode(out);
        self.total_bits.encode(out);
        self.max_message_bits.encode(out);
        self.max_vertex_round_bits.encode(out);
        self.dropped_deliveries.encode(out);
        self.crashed_vertex_rounds.encode(out);
        self.per_round.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(RunStats {
            rounds: usize::decode(input)?,
            total_sends: usize::decode(input)?,
            total_deliveries: usize::decode(input)?,
            total_bits: usize::decode(input)?,
            max_message_bits: usize::decode(input)?,
            max_vertex_round_bits: usize::decode(input)?,
            dropped_deliveries: usize::decode(input)?,
            crashed_vertex_rounds: usize::decode(input)?,
            per_round: Vec::decode(input)?,
        })
    }
}

impl<A> ByteCodec for NetworkSnapshot<A>
where
    A: NodeAlgorithm + ByteCodec,
    A::Message: ByteCodec,
{
    fn encode(&self, out: &mut Vec<u8>) {
        self.nodes.encode(out);
        self.outboxes.encode(out);
        self.stats.encode(out);
        self.initialized.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let nodes: Vec<A> = Vec::decode(input)?;
        let outboxes: Vec<Outgoing<A::Message>> = Vec::decode(input)?;
        let stats = RunStats::decode(input)?;
        let initialized = bool::decode(input)?;
        if nodes.len() != outboxes.len() {
            return Err(CodecError::Malformed("node and outbox counts disagree"));
        }
        Ok(NetworkSnapshot {
            nodes,
            outboxes,
            stats,
            initialized,
        })
    }
}

/// Wraps one [`ByteCodec`] value in a self-contained, checksummed frame —
/// the unit [`FrameReader`] iterates over and [`crate::journal`] appends.
pub fn encode_frame<T: ByteCodec>(value: &T) -> Vec<u8> {
    let mut payload = Vec::new();
    value.encode(&mut payload);
    let mut out = Vec::with_capacity(payload.len() + FRAME_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out
}

/// Serialises a snapshot into a self-contained, checksummed byte frame.
pub fn encode_snapshot<A>(snapshot: &NetworkSnapshot<A>) -> Vec<u8>
where
    A: NodeAlgorithm + ByteCodec,
    A::Message: ByteCodec,
{
    encode_frame(snapshot)
}

/// Deserialises a frame produced by [`encode_snapshot`]. The returned
/// snapshot restores into an identically-constructed [`crate::Network`]
/// exactly like an in-memory one — resumes are bit-identical.
///
/// This is the **strict single-frame** API: exactly one frame, nothing after
/// it (leftover bytes fail with [`CodecError::TrailingBytes`]). For a buffer
/// of concatenated frames — an append-only journal — use [`FrameReader`].
pub fn decode_snapshot<A>(bytes: &[u8]) -> Result<NetworkSnapshot<A>, CodecError>
where
    A: NodeAlgorithm + ByteCodec,
    A::Message: ByteCodec,
{
    if bytes.len() < FRAME_BYTES {
        return if bytes.len() >= 4 && &bytes[..4] != MAGIC {
            Err(CodecError::BadMagic)
        } else {
            Err(CodecError::Truncated)
        };
    }
    if &bytes[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let Some((framed, checksum)) = bytes.split_last_chunk::<8>() else {
        return Err(CodecError::Truncated);
    };
    let payload = &framed[6..];
    if fnv1a(payload) != u64::from_le_bytes(*checksum) {
        return Err(CodecError::Checksum);
    }

    let mut input = payload;
    let snapshot = NetworkSnapshot::decode(&mut input)?;
    if !input.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(snapshot)
}

/// A typed decode failure at a known position in a multi-frame buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameError {
    /// Byte offset (into the buffer handed to [`FrameReader::new`]) of the
    /// start of the frame that failed — for a partial trailing frame this is
    /// where a salvaging writer should truncate and resume appending.
    pub offset: usize,
    /// Why the frame failed.
    pub error: CodecError,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame at byte {}: {}", self.offset, self.error)
    }
}

impl std::error::Error for FrameError {}

/// Iterator over **concatenated** frames in one buffer — the read side of an
/// append-only journal, where [`decode_snapshot`]'s strict single-frame
/// contract would reject everything after the first frame as
/// [`CodecError::TrailingBytes`].
///
/// Each `next()` decodes one frame's value. Errors are typed per frame
/// (yielded as a [`FrameError`] with the frame's byte offset) and **fuse**
/// the iterator: the frame format carries no length word, so nothing after a
/// broken frame can be located reliably. A partial trailing frame — the
/// signature of a crash mid-append — surfaces as [`CodecError::Truncated`]
/// at the offset where the valid prefix ends ([`FrameReader::offset`] stays
/// at that position, so a writer can truncate there and continue).
///
/// The frame checksum is verified *after* the payload parse here (the
/// payload's extent is only known once it is decoded), so a corrupted byte
/// may surface as `Malformed`/`Truncated` instead of `Checksum` — still
/// typed, still at the right frame.
#[derive(Debug)]
pub struct FrameReader<'a, T> {
    bytes: &'a [u8],
    offset: usize,
    fused: bool,
    _value: std::marker::PhantomData<fn() -> T>,
}

impl<'a, T: ByteCodec> FrameReader<'a, T> {
    /// A reader over `bytes`, positioned at the first frame.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameReader {
            bytes,
            offset: 0,
            fused: false,
            _value: std::marker::PhantomData,
        }
    }

    /// Byte offset of the next unread frame — after the iterator ends, the
    /// end of the last successfully decoded frame (the salvage point).
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Decodes the frame at `self.offset`, advancing past it on success.
    fn decode_next(&mut self) -> Result<T, CodecError> {
        let rem = &self.bytes[self.offset..];
        if rem.len() < 4 {
            return Err(CodecError::Truncated);
        }
        if &rem[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        if rem.len() < 6 {
            return Err(CodecError::Truncated);
        }
        let version = u16::from_le_bytes([rem[4], rem[5]]);
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let mut input = &rem[6..];
        let before = input.len();
        let value = T::decode(&mut input)?;
        let consumed = before - input.len();
        let payload = &rem[6..6 + consumed];
        let Some(checksum_bytes) = input.first_chunk::<8>() else {
            return Err(CodecError::Truncated);
        };
        let stored = u64::from_le_bytes(*checksum_bytes);
        if fnv1a(payload) != stored {
            return Err(CodecError::Checksum);
        }
        self.offset += 6 + consumed + 8;
        Ok(value)
    }
}

impl<T: ByteCodec> Iterator for FrameReader<'_, T> {
    type Item = Result<T, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused || self.offset == self.bytes.len() {
            return None;
        }
        let frame_start = self.offset;
        match self.decode_next() {
            Ok(value) => Some(Ok(value)),
            Err(error) => {
                self.fused = true;
                Some(Err(FrameError {
                    offset: frame_start,
                    error,
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::model::Model;
    use crate::network::Network;
    use crate::node::{Inbox, NodeContext};
    use bedom_graph::generators::grid;

    /// A stateful protocol whose divergence compounds (same shape as the
    /// network's snapshot tests), with a hand-written codec.
    #[derive(Clone, Debug, PartialEq)]
    struct Summer {
        total: u64,
        rounds_seen: u32,
    }

    impl NodeAlgorithm for Summer {
        type Message = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            self.total = ctx.id + 1;
            Outgoing::Broadcast(self.total)
        }

        fn round(&mut self, _: &NodeContext, _: usize, inbox: Inbox<'_, u64>) -> Outgoing<u64> {
            self.rounds_seen += 1;
            self.total += inbox.iter().map(|m| *m.payload).sum::<u64>();
            Outgoing::Broadcast(self.total)
        }

        fn output(&self, _: &NodeContext) -> u64 {
            self.total
        }
    }

    impl ByteCodec for Summer {
        fn encode(&self, out: &mut Vec<u8>) {
            self.total.encode(out);
            self.rounds_seen.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(Summer {
                total: u64::decode(input)?,
                rounds_seen: u32::decode(input)?,
            })
        }
    }

    fn summer_net(g: &bedom_graph::Graph) -> Network<'_, Summer> {
        Network::new(g, Model::Local, IdAssignment::Shuffled(3), |_, _| Summer {
            total: 0,
            rounds_seen: 0,
        })
    }

    fn encoded_midrun_snapshot(g: &bedom_graph::Graph) -> Vec<u8> {
        let mut net = summer_net(g);
        net.run(3).unwrap();
        encode_snapshot(&net.snapshot())
    }

    #[test]
    fn round_trip_resume_is_bit_identical() {
        // The relabelled grid numbers its vertices against a BFS from 0, so
        // it also covers any storage order the network keeps internally.
        let mut perm: Vec<u32> = (0..25).collect();
        bedom_rng::DetRng::seed_from_u64(4).shuffle(&mut perm);
        for g in [grid(5, 5), grid(5, 5).relabel(&perm)] {
            let total_rounds = 8;

            let mut reference = summer_net(&g);
            reference.run(total_rounds).unwrap();

            let bytes = encoded_midrun_snapshot(&g);
            let snapshot = decode_snapshot::<Summer>(&bytes).unwrap();
            assert_eq!(snapshot.rounds(), 3);
            assert_eq!(snapshot.num_vertices(), 25);

            let mut resumed = summer_net(&g);
            resumed.restore(&snapshot);
            resumed.run(total_rounds - 3).unwrap();
            assert_eq!(resumed.outputs(), reference.outputs());
            assert_eq!(resumed.stats(), reference.stats());
        }
    }

    #[test]
    fn retired_and_unknown_outgoing_tags_are_typed_errors() {
        // Tag 2 once carried per-neighbour messages: a count, then
        // `(target, message)` pairs. Every tag is followed by such a body,
        // well formed for the retired tag 2.
        let mut former_unicast_body = Vec::new();
        2usize.encode(&mut former_unicast_body);
        for (target, message) in [(9u64, 41u64), (3, 42)] {
            target.encode(&mut former_unicast_body);
            message.encode(&mut former_unicast_body);
        }
        for tag in 2..=u8::MAX {
            let mut bytes = vec![tag];
            bytes.extend_from_slice(&former_unicast_body);
            let mut input = bytes.as_slice();
            assert_eq!(
                Outgoing::<u64>::decode(&mut input).unwrap_err(),
                CodecError::Malformed("outgoing tag out of range"),
                "tag {tag}"
            );
        }
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let g = grid(4, 4);
        let mut bytes = encoded_midrun_snapshot(&g);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert_eq!(
            decode_snapshot::<Summer>(&bytes).unwrap_err(),
            CodecError::Checksum
        );
    }

    #[test]
    fn truncated_input_is_rejected() {
        let g = grid(4, 4);
        let bytes = encoded_midrun_snapshot(&g);
        for len in [0, 3, 6, FRAME_BYTES - 1, bytes.len() - 1] {
            let err = decode_snapshot::<Summer>(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::Checksum),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_distinct_errors() {
        let g = grid(4, 4);
        let mut bytes = encoded_midrun_snapshot(&g);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            decode_snapshot::<Summer>(&wrong_magic).unwrap_err(),
            CodecError::BadMagic
        );
        bytes[4] = 0xfe;
        bytes[5] = 0xff;
        assert_eq!(
            decode_snapshot::<Summer>(&bytes).unwrap_err(),
            CodecError::UnsupportedVersion(0xfffe)
        );
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let g = grid(3, 3);
        let mut net = summer_net(&g);
        net.init().unwrap();
        let snapshot = net.snapshot();

        // Re-frame the valid payload with a stray byte and a fixed-up
        // checksum: only the strict length check can catch this.
        let mut payload = Vec::new();
        snapshot.nodes.encode(&mut payload);
        snapshot.outboxes.encode(&mut payload);
        snapshot.stats.encode(&mut payload);
        snapshot.initialized.encode(&mut payload);
        payload.push(0x5a);
        let mut framed = Vec::new();
        framed.extend_from_slice(MAGIC);
        framed.extend_from_slice(&VERSION.to_le_bytes());
        framed.extend_from_slice(&payload);
        framed.extend_from_slice(&fnv1a(&payload).to_le_bytes());
        assert_eq!(
            decode_snapshot::<Summer>(&framed).unwrap_err(),
            CodecError::TrailingBytes
        );
    }

    #[test]
    fn option_codec_round_trips_and_rejects_bad_tags() {
        for value in [None, Some(42u64)] {
            let mut bytes = Vec::new();
            value.encode(&mut bytes);
            let mut input = bytes.as_slice();
            assert_eq!(Option::<u64>::decode(&mut input).unwrap(), value);
            assert!(input.is_empty());
        }
        let mut input: &[u8] = &[2u8];
        assert_eq!(
            Option::<u64>::decode(&mut input).unwrap_err(),
            CodecError::Malformed("option tag out of range")
        );
    }

    #[test]
    fn frame_reader_decodes_concatenated_frames_in_order() {
        let values: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mut buf = Vec::new();
        for v in &values {
            buf.extend_from_slice(&encode_frame(v));
        }
        // The strict single-frame path must still reject the concatenation.
        let mut reader = FrameReader::<u64>::new(&buf);
        let decoded: Vec<u64> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(decoded, values);
        assert_eq!(reader.offset(), buf.len());
        assert!(reader.next().is_none());
    }

    #[test]
    fn frame_reader_reports_partial_trailing_frame_as_truncated_at_its_offset() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_frame(&7u64));
        buf.extend_from_slice(&encode_frame(&8u64));
        let salvage_point = buf.len();
        let partial = encode_frame(&9u64);
        for cut in 1..partial.len() {
            let mut journal = buf.clone();
            journal.extend_from_slice(&partial[..cut]);
            let mut reader = FrameReader::<u64>::new(&journal);
            assert_eq!(reader.next().unwrap().unwrap(), 7);
            assert_eq!(reader.next().unwrap().unwrap(), 8);
            let err = reader.next().unwrap().unwrap_err();
            assert_eq!(err.offset, salvage_point, "cut at {cut}");
            assert!(
                matches!(err.error, CodecError::Truncated | CodecError::Checksum),
                "cut at {cut} gave {err:?}"
            );
            assert_eq!(reader.offset(), salvage_point);
            assert!(reader.next().is_none(), "errors fuse the reader");
        }
    }

    #[test]
    fn frame_reader_surfaces_mid_stream_corruption_typed_and_fuses() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_frame(&1u64));
        let second_start = buf.len();
        buf.extend_from_slice(&encode_frame(&2u64));
        buf.extend_from_slice(&encode_frame(&3u64));

        let mut bad_magic = buf.clone();
        bad_magic[second_start] = b'X';
        let mut reader = FrameReader::<u64>::new(&bad_magic);
        assert_eq!(reader.next().unwrap().unwrap(), 1);
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.offset, second_start);
        assert_eq!(err.error, CodecError::BadMagic);
        assert!(reader.next().is_none());

        let mut bad_sum = buf;
        // Flip a payload byte of the second frame; the u64 still parses, so
        // the checksum is what catches it.
        bad_sum[second_start + 6] ^= 0xff;
        let mut reader = FrameReader::<u64>::new(&bad_sum);
        assert_eq!(reader.next().unwrap().unwrap(), 1);
        let err = reader.next().unwrap().unwrap_err();
        assert_eq!(err.offset, second_start);
        assert_eq!(err.error, CodecError::Checksum);
        assert!(reader.next().is_none());
    }

    #[test]
    fn frame_reader_round_trips_snapshots() {
        let g = grid(4, 4);
        let first = encoded_midrun_snapshot(&g);
        let mut net = summer_net(&g);
        net.init().unwrap();
        let second = encode_snapshot(&net.snapshot());
        let mut buf = first.clone();
        buf.extend_from_slice(&second);

        assert_eq!(
            decode_snapshot::<Summer>(&buf).unwrap_err(),
            CodecError::Checksum,
            "the strict single-frame API must keep rejecting concatenations"
        );
        let mut reader = FrameReader::<NetworkSnapshot<Summer>>::new(&buf);
        let a = reader.next().unwrap().unwrap();
        let b = reader.next().unwrap().unwrap();
        assert!(reader.next().is_none());
        assert_eq!(encode_snapshot(&a), first);
        assert_eq!(encode_snapshot(&b), second);
    }
}
