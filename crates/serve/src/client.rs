//! A minimal blocking client for the NDJSON protocol — what `mhla
//! submit`/`status`/`shutdown` are built on.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to an `mhla serve` instance.
pub struct Client {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Client {
    /// Connects to a running server, with `TCP_NODELAY` set: each request
    /// is one complete frame, so Nagle's coalescing would only hold it back
    /// until the server's delayed ACK.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the connect or from setting the option.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            pending: Vec::new(),
        })
    }

    /// Sends one request line — the line and its `\n` in a single write —
    /// and blocks for its response line (without the trailing newline).
    /// The connection stays open — NDJSON carries any number of
    /// request/response pairs.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the transport; [`ErrorKind::UnexpectedEof`]
    /// when the server closes before answering.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.stream.write_all(&frame)?;
        self.read_line()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=nl).collect();
                return Ok(String::from_utf8_lossy(&line[..nl])
                    .trim_end_matches('\r')
                    .to_string());
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// One-shot convenience: connect, send one line, return the response.
///
/// # Errors
///
/// As [`Client::connect`] / [`Client::roundtrip`].
pub fn request_once(addr: impl ToSocketAddrs, line: &str) -> io::Result<String> {
    Client::connect(addr)?.roundtrip(line)
}
