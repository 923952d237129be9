//! A raw `incgraph-wire/1` connection for an open-loop generator: sends
//! are never blocked on replies, and reads take a deadline so one thread
//! can wait for replies until its next scheduled send. The service's
//! blocking `Client` cannot do this: it waits for each reply, owns both
//! halves of its socket (the subscriber's are used from two threads),
//! and would stamp a line when it is parsed rather than when it arrived.

use incgraph_graph::{Update, UpdateBatch};
use incgraph_service::client::parse_reply;
use incgraph_service::{Reply, WIRE_VERSION};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The write half.
pub struct Tx(TcpStream);

impl Tx {
    pub fn send(&mut self, msg: &str) -> io::Result<()> {
        self.0.write_all(msg.as_bytes())
    }
}

/// The read half; lines come back with their arrival time.
pub struct Rx {
    r: BufReader<TcpStream>,
    partial: Vec<u8>,
    /// When the bytes now buffered were read: the arrival time of every
    /// line that completes inside the buffer.
    filled_at: Instant,
}

impl Rx {
    /// The next line, or `None` when `deadline` passes first.
    pub fn line_before(&mut self, deadline: Instant) -> io::Result<Option<(String, Instant)>> {
        loop {
            if let Some(pos) = self.r.buffer().iter().position(|&b| b == b'\n') {
                self.partial.extend_from_slice(&self.r.buffer()[..pos]);
                self.r.consume(pos + 1);
                let line = String::from_utf8_lossy(&self.partial).into_owned();
                self.partial.clear();
                return Ok(Some((line, self.filled_at)));
            }
            let buffered = self.r.buffer().len();
            self.partial.extend_from_slice(self.r.buffer());
            self.r.consume(buffered);
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(None);
            }
            self.r
                .get_ref()
                .set_read_timeout(Some(left.max(Duration::from_micros(50))))?;
            match self.r.fill_buf() {
                Ok([]) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(_) => self.filled_at = Instant::now(),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next reply that is not a notification, parsed; notifications
    /// met on the way are handed to `on_push`.
    pub fn reply(
        &mut self,
        timeout: Duration,
        mut on_push: impl FnMut(Reply, Instant),
    ) -> Result<Reply, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let (line, at) = self
                .line_before(deadline)
                .map_err(|e| format!("read: {e}"))?
                .ok_or("reply timed out")?;
            match parse_reply(&line).map_err(|e| e.to_string())? {
                r @ (Reply::Delta(_) | Reply::VDelta(_)) => on_push(r, at),
                r => return Ok(r),
            }
        }
    }
}

/// Connects and completes the `HELLO` handshake.
pub fn connect(addr: SocketAddr, token: &str) -> Result<(Tx, Rx), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut tx = Tx(s.try_clone().map_err(|e| e.to_string())?);
    let mut rx = Rx {
        r: BufReader::with_capacity(1 << 20, s),
        partial: Vec::new(),
        filled_at: Instant::now(),
    };
    tx.send(&format!("HELLO {WIRE_VERSION} {token}\n"))
        .map_err(|e| e.to_string())?;
    match rx.reply(Duration::from_secs(10), |_, _| {})? {
        Reply::Welcome { .. } => Ok((tx, rx)),
        other => Err(format!("expected WELCOME, got {other:?}")),
    }
}

/// The `UPDATE` request text for one batch.
pub fn update_msg(graph: &str, client_seq: u64, batch: &UpdateBatch) -> String {
    let mut msg = String::with_capacity(16 + 16 * batch.len());
    writeln!(msg, "UPDATE {graph} {client_seq} {}", batch.len()).expect("String write");
    for u in batch.updates() {
        match *u {
            Update::Insert { src, dst, weight } => writeln!(msg, "+ {src} {dst} {weight}"),
            Update::Delete { src, dst } => writeln!(msg, "- {src} {dst}"),
        }
        .expect("String write");
    }
    msg
}
