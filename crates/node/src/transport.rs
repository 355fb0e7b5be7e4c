//! Loopback TCP transport (feature `net-loopback`): the same wire frames
//! the in-process runtime exchanges, shipped over real sockets.
//!
//! Scope: a framed stream codec over `TcpStream` for smoke-testing that
//! the byte format survives a real transport (partial reads, coalesced
//! writes). The lockstep and firehose runtimes stay on in-process
//! channels, where quiescence is provable; a socket deployment would
//! wrap [`FramedStream`] per link.

use std::io::{Read, Write};
use std::net::TcpStream;

use omn_contacts::NodeId;
use omn_core::protocol::ProtocolMsg;
use omn_sim::SimTime;

use crate::codec::{self, CodecError};
use crate::wire::Frame;

/// A length-delimited frame codec over one TCP stream.
#[derive(Debug)]
pub struct FramedStream {
    stream: TcpStream,
    /// Bytes read but not yet decoded into a whole frame.
    buf: Vec<u8>,
}

impl FramedStream {
    /// Wraps a connected stream.
    #[must_use]
    pub fn new(stream: TcpStream) -> FramedStream {
        FramedStream {
            stream,
            buf: Vec::new(),
        }
    }

    /// Serializes and writes one protocol message.
    pub fn send(
        &mut self,
        seq: u64,
        from: NodeId,
        to: NodeId,
        at: SimTime,
        msg: &ProtocolMsg,
    ) -> std::io::Result<()> {
        let bytes = codec::encode(seq, from, to, at, msg);
        self.stream.write_all(&bytes)
    }

    /// Reads until one whole frame is buffered and decodes it. Returns
    /// `Ok(None)` on clean EOF at a frame boundary.
    pub fn recv(&mut self) -> std::io::Result<Option<(NodeId, SimTime, ProtocolMsg)>> {
        let mut chunk = [0u8; 4096];
        loop {
            match Frame::decode(&self.buf) {
                Ok(Some((frame, used))) => {
                    self.buf.drain(..used);
                    let msg = codec::decode_frame(&frame).map_err(to_io)?;
                    return Ok(Some((frame.message.src(), frame.message.created(), msg)));
                }
                Ok(None) => {}
                Err(e) => return Err(to_io(CodecError::Frame(e))),
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                if self.buf.is_empty() {
                    return Ok(None);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "socket closed mid-frame",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn to_io(e: CodecError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn frames_round_trip_over_loopback_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut framed = FramedStream::new(stream);
            let mut got = Vec::new();
            while let Some(item) = framed.recv().unwrap() {
                got.push(item);
            }
            got
        });
        let mut client = FramedStream::new(TcpStream::connect(addr).unwrap());
        let sent: Vec<ProtocolMsg> = (1..=50)
            .map(|v| ProtocolMsg::Refresh { version: v })
            .collect();
        for (i, msg) in sent.iter().enumerate() {
            client
                .send(i as u64, n(1), n(2), SimTime::from_secs(i as f64), msg)
                .unwrap();
        }
        drop(client);
        let got = server.join().unwrap();
        assert_eq!(got.len(), sent.len());
        for (i, (from, at, msg)) in got.iter().enumerate() {
            assert_eq!(*from, n(1));
            assert_eq!(*at, SimTime::from_secs(i as f64));
            assert_eq!(msg, &sent[i]);
        }
    }
}
