//! Serialization of [`ProtocolMsg`] into [`wire`](crate::wire) frames.
//!
//! Every message a node task sends crosses its link as real bytes: the
//! protocol payload is tag-encoded, wrapped in a [`Frame`] whose
//! [`Message`] header carries the sender, receiver, and send instant, and
//! decoded back on the receiving side. Decode failures are typed
//! ([`CodecError`]) and surface as counted drops, never panics.

use omn_contacts::NodeId;
use omn_core::protocol::{PeerSummary, ProtocolMsg};
use omn_sim::SimTime;

use crate::wire::{Frame, Message, MessageId, WireError};

/// Payload tag for [`ProtocolMsg::Refresh`].
const TAG_REFRESH: u8 = 0;
/// Payload tag for [`ProtocolMsg::Summary`].
const TAG_SUMMARY: u8 = 1;

/// Why a received byte buffer could not be decoded into a protocol
/// message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The outer frame was malformed or oversized.
    Frame(WireError),
    /// The buffer held a frame prefix but not a whole frame.
    Truncated,
    /// Whole-frame decode left unconsumed trailing bytes.
    TrailingBytes,
    /// The payload tag is not part of the protocol.
    UnknownTag(u8),
    /// The payload body did not match its tag's layout.
    BadPayload,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Frame(e) => write!(f, "frame error: {e}"),
            CodecError::Truncated => write!(f, "buffer holds only a partial frame"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after frame"),
            CodecError::UnknownTag(t) => write!(f, "unknown protocol payload tag {t}"),
            CodecError::BadPayload => write!(f, "payload body does not match its tag"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> CodecError {
        CodecError::Frame(e)
    }
}

/// Encodes `msg` from `from` to `to` at simulated instant `at` into one
/// wire frame. `seq` becomes the frame's [`MessageId`] (unique per
/// sender). The payload is built on the stack, so the returned buffer,
/// sized exactly to the frame, is the only allocation.
#[must_use]
pub fn encode(seq: u64, from: NodeId, to: NodeId, at: SimTime, msg: &ProtocolMsg) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(seq, from, to, at, msg, &mut out);
    out
}

/// Appends the frame [`encode`] builds to `buf`: the same bytes, with
/// `buf` grown at most once (amortized, so a buffer of back-to-back frames
/// reallocates O(log n) times).
pub fn encode_into(
    seq: u64,
    from: NodeId,
    to: NodeId,
    at: SimTime,
    msg: &ProtocolMsg,
    buf: &mut Vec<u8>,
) {
    let payload = Payload::new(msg);
    let payload = payload.as_slice();
    let size = payload.len().max(1) as u64;
    let message = Message::new(MessageId(seq), from, to, size, at, None);
    Frame::encode_parts(&message, payload, buf);
}

/// Decodes one whole frame: the sender, the simulated send instant, and
/// the protocol message. Allocates nothing.
pub fn decode(bytes: &[u8]) -> Result<(NodeId, SimTime, ProtocolMsg), CodecError> {
    let (message, payload, used) = Frame::decode_parts(bytes)?.ok_or(CodecError::Truncated)?;
    if used != bytes.len() {
        return Err(CodecError::TrailingBytes);
    }
    let msg = decode_payload(payload)?;
    Ok((message.src(), message.created(), msg))
}

/// Decodes back-to-back frames front to back, as [`encode_into`] appends
/// them. Allocates nothing.
pub fn decode_stream(bytes: &[u8]) -> Frames<'_> {
    Frames { rest: bytes }
}

/// Iterator returned by [`decode_stream`]. Each item is one frame's
/// encoded length, sender, simulated send instant and message. The first
/// error is the last item: a stream cannot be resynchronized past a bad
/// frame, and a cut tail is [`CodecError::Truncated`].
#[derive(Debug)]
pub struct Frames<'a> {
    rest: &'a [u8],
}

impl Iterator for Frames<'_> {
    type Item = Result<(usize, NodeId, SimTime, ProtocolMsg), CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        let frame = Frame::decode_parts(self.rest)
            .map_err(CodecError::from)
            .and_then(|parts| parts.ok_or(CodecError::Truncated))
            .and_then(|(message, payload, used)| {
                let msg = decode_payload(payload)?;
                Ok((used, message.src(), message.created(), msg))
            });
        self.rest = match frame {
            Ok((used, ..)) => &self.rest[used..],
            Err(_) => &[],
        };
        Some(frame)
    }
}

/// Decodes the protocol payload of an already-parsed frame (for
/// transports that do their own stream framing).
pub fn decode_frame(frame: &Frame) -> Result<ProtocolMsg, CodecError> {
    decode_payload(&frame.payload)
}

/// The longest payload: a `Summary` with both optional versions set.
const MAX_PAYLOAD: usize = 1 + 4 + 1 + 9 + 9;

/// An encoded payload, on the stack.
struct Payload {
    bytes: [u8; MAX_PAYLOAD],
    len: usize,
}

impl Payload {
    fn new(msg: &ProtocolMsg) -> Payload {
        let mut p = Payload {
            bytes: [0; MAX_PAYLOAD],
            len: 0,
        };
        match *msg {
            ProtocolMsg::Refresh { version } => {
                p.push(&[TAG_REFRESH]);
                p.push(&version.to_le_bytes());
            }
            ProtocolMsg::Summary(s) => {
                p.push(&[TAG_SUMMARY]);
                p.push(&s.node.0.to_le_bytes());
                p.push(&[u8::from(s.is_member)]);
                p.push_opt_u64(s.cache);
                p.push_opt_u64(s.carried);
            }
        }
        p
    }

    fn push(&mut self, bytes: &[u8]) {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn push_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.push(&[1]);
                self.push(&v.to_le_bytes());
            }
            None => self.push(&[0]),
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

fn decode_payload(payload: &[u8]) -> Result<ProtocolMsg, CodecError> {
    let (&tag, body) = payload.split_first().ok_or(CodecError::BadPayload)?;
    match tag {
        TAG_REFRESH => {
            let version = u64::from_le_bytes(body.try_into().map_err(|_| CodecError::BadPayload)?);
            Ok(ProtocolMsg::Refresh { version })
        }
        TAG_SUMMARY => {
            let mut r = body;
            let node = NodeId(u32::from_le_bytes(
                take(&mut r, 4)?.try_into().expect("4 bytes"),
            ));
            let is_member = match take(&mut r, 1)?[0] {
                0 => false,
                1 => true,
                _ => return Err(CodecError::BadPayload),
            };
            let cache = take_opt_u64(&mut r)?;
            let carried = take_opt_u64(&mut r)?;
            if !r.is_empty() {
                return Err(CodecError::BadPayload);
            }
            Ok(ProtocolMsg::Summary(PeerSummary {
                node,
                is_member,
                cache,
                carried,
            }))
        }
        other => Err(CodecError::UnknownTag(other)),
    }
}

fn take<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if r.len() < n {
        return Err(CodecError::BadPayload);
    }
    let (head, tail) = r.split_at(n);
    *r = tail;
    Ok(head)
}

fn take_opt_u64(r: &mut &[u8]) -> Result<Option<u64>, CodecError> {
    match take(r, 1)?[0] {
        0 => Ok(None),
        1 => Ok(Some(u64::from_le_bytes(
            take(r, 8)?.try_into().expect("8 bytes"),
        ))),
        _ => Err(CodecError::BadPayload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn refresh_round_trips() {
        let msg = ProtocolMsg::Refresh { version: 42 };
        let bytes = encode(7, n(1), n(2), SimTime::from_secs(30.5), &msg);
        let (from, at, decoded) = decode(&bytes).unwrap();
        assert_eq!(from, n(1));
        assert_eq!(at, SimTime::from_secs(30.5));
        assert_eq!(decoded, msg);
    }

    #[test]
    fn summary_round_trips_with_and_without_fields() {
        for summary in [
            PeerSummary {
                node: n(9),
                is_member: true,
                cache: Some(3),
                carried: None,
            },
            PeerSummary {
                node: n(10),
                is_member: false,
                cache: None,
                carried: Some(11),
            },
            PeerSummary {
                node: n(0),
                is_member: false,
                cache: None,
                carried: None,
            },
        ] {
            let msg = ProtocolMsg::Summary(summary);
            let bytes = encode(1, n(3), n(4), SimTime::ZERO, &msg);
            let (_, _, decoded) = decode(&bytes).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    /// The exact bytes of four frames, pinned; each also equals the frame
    /// that `Frame::new(..).to_bytes()` builds from the same parts, and
    /// `encode_into` appends the same bytes. Back to back, the four decode
    /// in order with their exact lengths, and a cut tail is a typed error
    /// that ends the stream.
    #[test]
    fn wire_bytes_are_pinned() {
        let cases = [
            (
                ProtocolMsg::Refresh {
                    version: 0x0102_0304_0506_0708,
                },
                "2e0000000700000000000000030000000400000009000000000000000000000000803e40\
                 0009000000000807060504030201",
            ),
            (
                ProtocolMsg::Summary(PeerSummary {
                    node: n(9),
                    is_member: true,
                    cache: Some(3),
                    carried: None,
                }),
                "350000000800000000000000030000000400000010000000000000000000000000803e40\
                 001000000001090000000101030000000000000000",
            ),
            (
                ProtocolMsg::Summary(PeerSummary {
                    node: n(10),
                    is_member: false,
                    cache: None,
                    carried: Some(11),
                }),
                "350000000900000000000000030000000400000010000000000000000000000000803e40\
                 0010000000010a0000000000010b00000000000000",
            ),
            (
                ProtocolMsg::Summary(PeerSummary {
                    node: n(0),
                    is_member: false,
                    cache: None,
                    carried: None,
                }),
                "2d0000000a00000000000000030000000400000008000000000000000000000000803e40\
                 00080000000100000000000000",
            ),
        ];
        let at = SimTime::from_secs(30.5);
        let mut lane = Vec::new();
        let mut expected = Vec::new();
        for (seq, (msg, pinned)) in (7..).zip(cases) {
            let bytes = encode(seq, n(3), n(4), at, &msg);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, pinned, "{msg:?}");
            let payload = Payload::new(&msg).as_slice().to_vec();
            let message = Message::new(MessageId(seq), n(3), n(4), payload.len() as u64, at, None);
            assert_eq!(bytes, Frame::new(message, payload).to_bytes(), "{msg:?}");
            assert_eq!(
                bytes.capacity(),
                bytes.len(),
                "{msg:?}: one exact allocation"
            );
            let mut buf = vec![0xAB];
            encode_into(seq, n(3), n(4), at, &msg, &mut buf);
            assert_eq!(buf[0], 0xAB, "{msg:?}: encode_into keeps what was there");
            assert_eq!(
                buf[1..],
                bytes[..],
                "{msg:?}: encode_into appends encode's bytes"
            );
            encode_into(seq, n(3), n(4), at, &msg, &mut lane);
            expected.push(Ok((pinned.len() / 2, n(3), at, msg)));
        }
        assert_eq!(decode_stream(&lane).collect::<Vec<_>>(), expected);
        assert_eq!(decode_stream(&[]).count(), 0);
        let mut cut = decode_stream(&lane[..lane.len() - 1]);
        assert_eq!(cut.by_ref().take(3).collect::<Vec<_>>(), expected[..3]);
        assert_eq!(cut.next(), Some(Err(CodecError::Truncated)));
        assert_eq!(cut.next(), None);
    }

    #[test]
    fn stream_stops_at_the_first_bad_frame() {
        let msg = ProtocolMsg::Refresh { version: 1 };
        let mut lane = Vec::new();
        for seq in 0..3 {
            encode_into(seq, n(1), n(2), SimTime::ZERO, &msg, &mut lane);
        }
        let frame_len = lane.len() / 3;
        // Corrupt the second frame's payload tag (its last 9 bytes are
        // tag + version): the third, intact frame is dropped with it.
        lane[2 * frame_len - 9] = 0xEE;
        let decoded: Vec<_> = decode_stream(&lane).collect();
        assert_eq!(decoded.len(), 2);
        assert!(decoded[0].is_ok());
        assert_eq!(decoded[1], Err(CodecError::UnknownTag(0xEE)));
    }

    #[test]
    fn bad_tag_and_truncation_are_typed_errors() {
        let msg = ProtocolMsg::Refresh { version: 1 };
        let mut bytes = encode(1, n(1), n(2), SimTime::ZERO, &msg);
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated)
        );
        // Corrupt the payload tag (last 9 bytes are tag + version).
        let tag_at = bytes.len() - 9;
        bytes[tag_at] = 0xEE;
        assert_eq!(decode(&bytes), Err(CodecError::UnknownTag(0xEE)));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let msg = ProtocolMsg::Refresh { version: 1 };
        let mut bytes = encode(1, n(1), n(2), SimTime::ZERO, &msg);
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(CodecError::TrailingBytes));
    }
}
