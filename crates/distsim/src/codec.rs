//! In-tree byte codec for the frames of the durable batch journal
//! ([`crate::journal`]).
//!
//! The workspace is dependency-free, so the wire format is hand-rolled and
//! deliberately simple: a versioned header with a checked length word,
//! little-endian fixed-width integers, length-prefixed sequences, and an
//! FNV-1a checksum over the payload. Each frame is self-contained:
//!
//! ```text
//! "BDSN" | version: u16 LE | len: u32 LE | !len: u32 LE | payload | fnv1a64(payload): u64 LE
//! ```
//!
//! The payload is one value's [`ByteCodec`] encoding, exactly `len` bytes.
//! Record types supply their own impls (the journal cannot know their
//! layout); the integers, `bool`, `Option` and `Vec` ship impls here.
//!
//! [`encode_frame`] writes one frame, and [`FrameReader`] iterates over
//! **concatenated** frames in one buffer — the contract of an append-only
//! journal, where each append is a self-contained frame. Decoding is strict:
//! wrong magic, unknown version, short input, checksum mismatch and
//! malformed payloads each fail with a distinct [`CodecError`], inside a
//! [`FrameError`] carrying the byte offset of the broken frame. The length
//! word fixes a frame's extent before any payload byte is read, so only a
//! strict prefix of a frame — a crash mid-append — reads as
//! [`CodecError::Truncated`]: an incomplete header, or fewer bytes left than
//! the payload and checksum need. A length word that disagrees with its
//! complement is [`CodecError::Malformed`]; the checksum is verified before
//! the payload is decoded, and a payload that fails to decode in exactly
//! `len` bytes is `Malformed` too. A journal salvages the valid prefix
//! before a `Truncated` frame and refuses every other error.

use bedom_graph::cast::u32_from_usize;

const MAGIC: &[u8; 4] = b"BDSN";
const VERSION: u16 = 2;
/// Bytes of the header before the payload: magic, version, `len`, `!len`.
const HEADER_BYTES: usize = 4 + 2 + 4 + 4;
/// Bytes of the checksum after the payload.
const CHECKSUM_BYTES: usize = 8;

/// Why decoding failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input does not start with the frame magic.
    BadMagic,
    /// The frame's version is not the one this build reads (version 1
    /// frames, which carried no length word, included).
    UnsupportedVersion(u16),
    /// The input ended before the structure was complete.
    Truncated,
    /// The payload checksum does not match — the bytes were corrupted.
    Checksum,
    /// A structurally invalid value (unknown tag, impossible count, …).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a codec frame (bad magic)"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported frame version {v} (this build reads {VERSION})"
                )
            }
            CodecError::Truncated => write!(f, "frame is truncated"),
            CodecError::Checksum => write!(f, "frame payload failed its checksum"),
            CodecError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
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
/// for a record type to store it in [`encode_frame`]'s frames.
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

/// Wraps one [`ByteCodec`] value in a self-contained, checksummed frame —
/// the unit [`FrameReader`] iterates over and [`crate::journal`] appends.
///
/// # Panics
/// Panics if the value's encoding exceeds `u32::MAX` bytes, the most a
/// frame's length word describes.
pub fn encode_frame<T: ByteCodec>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + CHECKSUM_BYTES);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&[0; 8]);
    value.encode(&mut out);
    let len = u32_from_usize(out.len() - HEADER_BYTES);
    out[6..10].copy_from_slice(&len.to_le_bytes());
    out[10..14].copy_from_slice(&(!len).to_le_bytes());
    let checksum = fnv1a(&out[HEADER_BYTES..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
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
/// append-only journal.
///
/// Each `next()` decodes one frame's value. Errors are typed per frame
/// (yielded as a [`FrameError`] with the frame's byte offset) and **fuse**
/// the iterator: a broken frame's length word cannot be trusted, so nothing
/// after it can be located reliably. A partial trailing frame — the
/// signature of a crash mid-append — surfaces as [`CodecError::Truncated`]
/// at the offset where the valid prefix ends ([`FrameReader::offset`] stays
/// at that position, so a writer can truncate there and continue).
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
        let Some(header) = rem.first_chunk::<HEADER_BYTES>() else {
            return Err(CodecError::Truncated);
        };
        let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
        let check = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
        if check != !len {
            return Err(CodecError::Malformed("corrupt length word"));
        }
        // A torn append is a strict prefix of its frame: too few bytes left
        // for the payload and the checksum.
        let (payload, trailer) = rem[HEADER_BYTES..]
            .split_at_checked(len as usize)
            .ok_or(CodecError::Truncated)?;
        let checksum = trailer
            .first_chunk::<CHECKSUM_BYTES>()
            .ok_or(CodecError::Truncated)?;
        if u64::from_le_bytes(*checksum) != fnv1a(payload) {
            return Err(CodecError::Checksum);
        }
        let mut input = payload;
        let value = match T::decode(&mut input) {
            Ok(value) if input.is_empty() => value,
            Ok(_) => return Err(CodecError::Malformed("bytes left over after the value")),
            Err(CodecError::Truncated) => {
                return Err(CodecError::Malformed("the value runs past its length word"))
            }
            Err(error) => return Err(error),
        };
        self.offset += HEADER_BYTES + payload.len() + CHECKSUM_BYTES;
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
            assert_eq!(
                err,
                FrameError {
                    offset: salvage_point,
                    error: CodecError::Truncated
                },
                "cut at {cut}"
            );
            assert_eq!(reader.offset(), salvage_point);
            assert!(reader.next().is_none(), "errors fuse the reader");
        }
    }

    #[test]
    fn a_value_that_disagrees_with_its_length_word_is_malformed_never_truncated() {
        // Each frame is intact, so its checksum matches; only the value
        // disagrees with the length word. A `u64` read as a `Vec` runs past
        // its payload, and a `Vec` read as a `u64` leaves bytes over.
        let seven = encode_frame(&7u64);
        let err = FrameReader::<Vec<u64>>::new(&seven)
            .next()
            .unwrap()
            .unwrap_err();
        let past = CodecError::Malformed("the value runs past its length word");
        assert_eq!((err.offset, err.error), (0, past));
        let ids = encode_frame(&vec![1u64, 2, 3]);
        let err = FrameReader::<u64>::new(&ids).next().unwrap().unwrap_err();
        let over = CodecError::Malformed("bytes left over after the value");
        assert_eq!((err.offset, err.error), (0, over));
        // A version 1 frame (no length word) is refused by its version.
        let mut v1 = seven;
        v1[4] = 1;
        let err = FrameReader::<u64>::new(&v1).next().unwrap().unwrap_err();
        assert_eq!(err.error, CodecError::UnsupportedVersion(1));
    }

    #[test]
    fn frame_reader_surfaces_mid_stream_corruption_typed_and_fuses() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&encode_frame(&1u64));
        let second_start = buf.len();
        buf.extend_from_slice(&encode_frame(&2u64));
        buf.extend_from_slice(&encode_frame(&3u64));

        // Each case flips one byte of the second frame: its magic, the high
        // byte of its version, the low byte of its length word (which no
        // longer matches its complement), and a payload byte (the u64 still
        // parses, so the checksum is what catches it).
        let malformed = CodecError::Malformed("corrupt length word");
        for (at, expected) in [
            (0, CodecError::BadMagic),
            (5, CodecError::UnsupportedVersion(0xff02)),
            (6, malformed),
            (14, CodecError::Checksum),
        ] {
            let mut bytes = buf.clone();
            bytes[second_start + at] ^= 0xff;
            let mut reader = FrameReader::<u64>::new(&bytes);
            assert_eq!(reader.next().unwrap().unwrap(), 1);
            let err = reader.next().unwrap().unwrap_err();
            assert_eq!(err.offset, second_start);
            assert_eq!(err.error, expected);
            assert!(reader.next().is_none(), "errors fuse the reader");
        }
    }
}
