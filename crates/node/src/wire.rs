//! Wire format for unicast messages: a length-prefixed binary frame that
//! carries a [`Message`] header plus an opaque payload.
//!
//! The node runtime serializes protocol messages into the payload
//! ([`crate::codec`]) and ships frames over real byte streams; the format
//! is therefore fully deterministic and self-delimiting:
//!
//! ```text
//! u32  body length (bytes after this field, little-endian)
//! u64  message id
//! u32  src node        u32  dst node
//! u64  declared size (bytes)
//! u64  created (f64 bits — exact round-trip)
//! u8   ttl flag        [u64 ttl (f64 bits) if flag = 1]
//! u32  payload length  [payload bytes]
//! ```
//!
//! All decode failures are typed [`WireError`]s — a malformed peer frame
//! must never panic the runtime.

use std::fmt;

use omn_contacts::NodeId;
use omn_sim::{SimDuration, SimTime};

/// Unique identifier of a unicast message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageId(pub u64);

/// The header a frame carries: an immutable unicast message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    id: MessageId,
    src: NodeId,
    dst: NodeId,
    size: u64,
    created: SimTime,
    ttl: Option<SimDuration>,
}

impl Message {
    /// Creates a message.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or `size == 0`.
    #[must_use]
    pub fn new(
        id: MessageId,
        src: NodeId,
        dst: NodeId,
        size: u64,
        created: SimTime,
        ttl: Option<SimDuration>,
    ) -> Message {
        assert!(src != dst, "Message::new: src == dst");
        assert!(size > 0, "Message::new: zero size");
        Message {
            id,
            src,
            dst,
            size,
            created,
            ttl,
        }
    }

    /// The message id.
    #[must_use]
    pub fn id(&self) -> MessageId {
        self.id
    }

    /// The originating node.
    #[must_use]
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The destination node.
    #[must_use]
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Payload size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Creation time.
    #[must_use]
    pub fn created(&self) -> SimTime {
        self.created
    }

    /// Time-to-live, if bounded.
    #[must_use]
    pub fn ttl(&self) -> Option<SimDuration> {
        self.ttl
    }
}

/// Upper bound on a frame body, guarding length-prefix corruption from
/// allocating unbounded memory.
pub const MAX_FRAME_BODY: usize = 16 * 1024 * 1024;

/// Fixed header bytes of a body: id, src, dst, size, created, ttl flag.
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 1;

/// Why a frame could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The declared body length exceeds [`MAX_FRAME_BODY`].
    Oversized {
        /// Declared body length.
        declared: usize,
    },
    /// The frame body disagrees with its own structure (bad flag byte,
    /// inner length overrun, trailing garbage, invalid header field).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Oversized { declared } => {
                write!(f, "frame body of {declared} bytes exceeds {MAX_FRAME_BODY}")
            }
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// What [`Frame::decode_parts`] yields: the header, the payload borrowed
/// from the input, and the bytes consumed.
pub type FrameParts<'a> = (Message, &'a [u8], usize);

/// One on-the-wire frame: a message header and its opaque payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The routed message header.
    pub message: Message,
    /// Opaque application payload (the node runtime puts the freshness
    /// protocol's serialized `ProtocolMsg` here).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame.
    #[must_use]
    pub fn new(message: Message, payload: Vec<u8>) -> Frame {
        Frame { message, payload }
    }

    /// Appends the encoded frame to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        Frame::encode_parts(&self.message, &self.payload, buf);
    }

    /// Appends the frame of `message` and `payload` to `buf` without
    /// building a [`Frame`]: the same bytes as [`Frame::encode`]. The only
    /// allocation is `buf` growing at most once; an empty `buf` gets
    /// exactly the frame's length.
    pub fn encode_parts(message: &Message, payload: &[u8], buf: &mut Vec<u8>) {
        let m = message;
        let ttl_len = if m.ttl().is_some() { 8 } else { 0 };
        buf.reserve(4 + HEADER_LEN + ttl_len + 4 + payload.len());
        let body_at = buf.len();
        buf.extend_from_slice(&[0u8; 4]); // length back-patched below
        buf.extend_from_slice(&m.id().0.to_le_bytes());
        buf.extend_from_slice(&m.src().0.to_le_bytes());
        buf.extend_from_slice(&m.dst().0.to_le_bytes());
        buf.extend_from_slice(&m.size().to_le_bytes());
        buf.extend_from_slice(&m.created().as_secs().to_bits().to_le_bytes());
        match m.ttl() {
            Some(ttl) => {
                buf.push(1);
                buf.extend_from_slice(&ttl.as_secs().to_bits().to_le_bytes());
            }
            None => buf.push(0),
        }
        let payload_len = u32::try_from(payload.len()).expect("payload fits the u32 length field");
        buf.extend_from_slice(&payload_len.to_le_bytes());
        buf.extend_from_slice(payload);
        let body_len = u32::try_from(buf.len() - body_at - 4).expect("frame body fits u32");
        buf[body_at..body_at + 4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// The encoded frame as a fresh buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Decodes one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only a partial frame (read more
    /// bytes and retry), or `Ok(Some((frame, consumed)))` on success.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the frame is structurally invalid; the stream
    /// should be torn down, since resynchronization is impossible.
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
        Ok(Frame::decode_parts(buf)?
            .map(|(message, payload, used)| (Frame::new(message, payload.to_vec()), used)))
    }

    /// [`Frame::decode`] without copying the payload, which stays
    /// borrowed from `buf`. Decodes and fails exactly as
    /// [`Frame::decode`] does, and allocates nothing.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the frame is structurally invalid.
    pub fn decode_parts(buf: &[u8]) -> Result<Option<FrameParts<'_>>, WireError> {
        let Some(len_bytes) = buf.get(..4) else {
            return Ok(None);
        };
        let body_len = u32::from_le_bytes(len_bytes.try_into().expect("4-byte slice")) as usize;
        if body_len > MAX_FRAME_BODY {
            return Err(WireError::Oversized { declared: body_len });
        }
        let Some(body) = buf.get(4..4 + body_len) else {
            return Ok(None);
        };
        let mut r = Reader { body, at: 0 };
        let id = MessageId(r.u64("message id")?);
        let src = NodeId(r.u32("src")?);
        let dst = NodeId(r.u32("dst")?);
        let size = r.u64("size")?;
        let created = SimTime::from_secs(r.f64("created")?);
        let ttl = match r.u8("ttl flag")? {
            0 => None,
            1 => Some(SimDuration::from_secs(r.f64("ttl")?)),
            _ => return Err(WireError::Malformed("ttl flag")),
        };
        let payload_len = r.u32("payload length")? as usize;
        let payload = r.bytes(payload_len, "payload")?;
        if r.at != body.len() {
            return Err(WireError::Malformed("trailing bytes in body"));
        }
        if src == dst {
            return Err(WireError::Malformed("src == dst"));
        }
        if size == 0 {
            return Err(WireError::Malformed("zero size"));
        }
        if !created.as_secs().is_finite() || created.as_secs() < 0.0 {
            return Err(WireError::Malformed("created time"));
        }
        if let Some(ttl) = ttl {
            if !ttl.as_secs().is_finite() || ttl.as_secs() < 0.0 {
                return Err(WireError::Malformed("ttl"));
            }
        }
        let message = Message::new(id, src, dst, size, created, ttl);
        Ok(Some((message, payload, 4 + body_len)))
    }
}

struct Reader<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let slice = self
            .body
            .get(self.at..self.at.checked_add(n).ok_or(WireError::Malformed(what))?)
            .ok_or(WireError::Malformed(what))?;
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.bytes(4, what)?.try_into().expect("4-byte slice"),
        ))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.bytes(8, what)?.try_into().expect("8-byte slice"),
        ))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn accessors() {
        let m = Message::new(
            MessageId(1),
            NodeId(0),
            NodeId(5),
            1024,
            t(10.0),
            Some(SimDuration::from_secs(100.0)),
        );
        assert_eq!(m.id(), MessageId(1));
        assert_eq!(m.src(), NodeId(0));
        assert_eq!(m.dst(), NodeId(5));
        assert_eq!(m.size(), 1024);
        assert_eq!(m.created(), t(10.0));
    }

    #[test]
    #[should_panic(expected = "src == dst")]
    fn rejects_self_message() {
        let _ = Message::new(MessageId(1), NodeId(3), NodeId(3), 1, t(0.0), None);
    }

    #[test]
    #[should_panic(expected = "zero size")]
    fn rejects_zero_size() {
        let _ = Message::new(MessageId(1), NodeId(0), NodeId(1), 0, t(0.0), None);
    }

    fn frame(ttl: Option<f64>, payload: &[u8]) -> Frame {
        Frame::new(
            Message::new(
                MessageId(42),
                NodeId(3),
                NodeId(9),
                128,
                SimTime::from_secs(0.1 + 0.2), // not exactly representable
                ttl.map(SimDuration::from_secs),
            ),
            payload.to_vec(),
        )
    }

    #[test]
    fn round_trip_exact() {
        for f in [
            frame(None, b""),
            frame(Some(3600.5), b"hello"),
            frame(Some(0.0), &[0u8; 1000]),
        ] {
            let bytes = f.to_bytes();
            let (back, used) = Frame::decode(&bytes).unwrap().unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, f);
            // f64 fields survive bit-for-bit.
            assert_eq!(
                back.message.created().as_secs().to_bits(),
                f.message.created().as_secs().to_bits()
            );
        }
    }

    #[test]
    fn partial_input_wants_more() {
        let bytes = frame(Some(1.0), b"abc").to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(Frame::decode(&bytes[..cut]).unwrap(), None, "cut={cut}");
        }
    }

    #[test]
    fn back_to_back_frames_stream() {
        let a = frame(None, b"first");
        let b = frame(Some(5.0), b"second");
        let mut buf = a.to_bytes();
        b.encode(&mut buf);
        let (fa, used) = Frame::decode(&buf).unwrap().unwrap();
        assert_eq!(fa, a);
        let (fb, used_b) = Frame::decode(&buf[used..]).unwrap().unwrap();
        assert_eq!(fb, b);
        assert_eq!(used + used_b, buf.len());
    }

    #[test]
    fn decode_parts_agrees_with_decode() {
        let owned = |r: Result<Option<FrameParts<'_>>, WireError>| {
            r.map(|o| o.map(|(m, p, used)| (Frame::new(m, p.to_vec()), used)))
        };
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        for f in [frame(None, b""), frame(Some(2.5), b"payload")] {
            let bytes = f.to_bytes();
            // Whole, every truncation, and a frame followed by more bytes.
            for cut in 0..=bytes.len() {
                inputs.push(bytes[..cut].to_vec());
            }
            let mut longer = bytes.clone();
            longer.extend_from_slice(b"next");
            inputs.push(longer);
            // A body with a trailing byte its structure does not account for.
            let mut trailing = bytes.clone();
            trailing.push(0);
            let body_len = u32::try_from(trailing.len() - 4).unwrap();
            trailing[..4].copy_from_slice(&body_len.to_le_bytes());
            inputs.push(trailing);
        }
        inputs.push(u32::MAX.to_le_bytes().to_vec());
        let mut kinds = [0usize; 3];
        for input in &inputs {
            let whole = Frame::decode(input);
            kinds[match &whole {
                Ok(Some(_)) => 0,
                Ok(None) => 1,
                Err(_) => 2,
            }] += 1;
            assert_eq!(owned(Frame::decode_parts(input)), whole, "{input:?}");
        }
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            Frame::decode(&buf),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn corrupt_flag_and_headers_are_typed_errors() {
        let mut bytes = frame(None, b"x").to_bytes();
        // The ttl flag byte sits after 4 (len) + 8 + 4 + 4 + 8 + 8 bytes.
        bytes[4 + 32] = 7;
        assert_eq!(Frame::decode(&bytes), Err(WireError::Malformed("ttl flag")));

        // src == dst must not panic Message::new.
        let mut bytes = frame(None, b"x").to_bytes();
        let src = bytes[4 + 8..4 + 12].to_vec();
        bytes[4 + 12..4 + 16].copy_from_slice(&src);
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::Malformed("src == dst"))
        );

        // Truncated body length claims more payload than present.
        let mut bytes = frame(None, b"xyz").to_bytes();
        let last = bytes.len() - 1;
        bytes[last - 6] = 200; // payload length field low byte
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::Malformed(_))
        ));
    }
}
