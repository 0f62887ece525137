//! A blocking client for the `locert-serve` wire protocol.
//!
//! One [`Client`] wraps one TCP connection: batches go out as single
//! frames, responses come back as single frames, strictly in order.
//! [`Client::send_raw`] ships an arbitrary payload — the failure-path
//! tests use it to probe the daemon with malformed frames.

use crate::proto::{self, Message, Request, Response};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};

/// One protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn protocol_error(what: String) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, what)
    }

    fn read_message(&mut self) -> io::Result<Message> {
        let payload = proto::read_frame(&mut self.reader)?
            .ok_or_else(|| Self::protocol_error("server closed mid-exchange".to_string()))?;
        proto::decode(&payload).map_err(|(code, msg)| {
            Self::protocol_error(format!("bad reply ({}): {msg}", code.code()))
        })
    }

    /// Sends one request batch and reads the paired response batch.
    ///
    /// # Errors
    ///
    /// Transport errors, a connection-level error frame from the
    /// server, or a response count that does not match the batch.
    pub fn send_batch(&mut self, requests: &[Request]) -> io::Result<Vec<Response>> {
        proto::write_frame(&mut self.writer, &proto::encode_requests(requests))?;
        match self.read_message()? {
            Message::Responses(responses) if responses.len() == requests.len() => Ok(responses),
            Message::Responses(responses) => Err(Self::protocol_error(format!(
                "{} responses for {} requests",
                responses.len(),
                requests.len()
            ))),
            Message::ConnError(code, msg) => Err(Self::protocol_error(format!(
                "connection error {}: {msg}",
                code.code()
            ))),
            other => Err(Self::protocol_error(format!("unexpected reply {other:?}"))),
        }
    }

    /// Sends a raw payload and reads whatever comes back (`None` when
    /// the server just closes). For protocol probing.
    ///
    /// # Errors
    ///
    /// Transport errors, or a reply this client cannot decode.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<Option<Message>> {
        proto::write_frame(&mut self.writer, payload)?;
        match proto::read_frame(&mut self.reader)? {
            None => Ok(None),
            Some(reply) => proto::decode(&reply).map(Some).map_err(|(code, msg)| {
                Self::protocol_error(format!("bad reply ({}): {msg}", code.code()))
            }),
        }
    }

    /// Asks the daemon to drain; true when the ack arrived.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn shutdown(mut self) -> io::Result<bool> {
        proto::write_frame(&mut self.writer, &proto::encode_shutdown())?;
        Ok(matches!(
            proto::read_frame(&mut self.reader)?
                .as_deref()
                .map(proto::decode),
            Some(Ok(Message::ShutdownAck))
        ))
    }
}
