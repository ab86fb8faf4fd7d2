//! A minimal HTTP/1.1 keep-alive client. The benchmark brings its own so
//! that the instrument does not change when the program's client does.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One answered request.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// One persistent connection, redialled when the server closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    /// The exact bytes [`Conn::send`] writes for a request.
    pub fn head(method: &str, target: &str, body: &str) -> String {
        let mut head = format!("{method} {target} HTTP/1.1\r\nhost: bench\r\n");
        if method == "POST" {
            head.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        head.push_str(body);
        head
    }

    pub fn get(&mut self, target: &str) -> Result<Reply, String> {
        self.send("GET", target, "")
    }

    pub fn post(&mut self, target: &str, body: &str) -> Result<Reply, String> {
        self.send("POST", target, body)
    }

    /// Send one request; a request that finds a connection the server
    /// already closed is retried once on a fresh one.
    pub fn send(&mut self, method: &str, target: &str, body: &str) -> Result<Reply, String> {
        let bytes = Self::head(method, target, body);
        let reused = self.stream.is_some();
        match self.exchange(bytes.as_bytes()) {
            Ok(reply) => Ok(reply),
            Err(_) if reused => {
                self.stream = None;
                self.exchange(bytes.as_bytes())
            }
            Err(e) => Err(e),
        }
    }

    fn exchange(&mut self, bytes: &[u8]) -> Result<Reply, String> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            self.stream = Some(BufReader::new(s));
        }
        let result = Self::roundtrip(self.stream.as_mut().expect("dialled above"), bytes);
        match result {
            Ok((reply, close)) => {
                if close {
                    self.stream = None;
                }
                Ok(reply)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn roundtrip(r: &mut BufReader<TcpStream>, bytes: &[u8]) -> Result<(Reply, bool), String> {
        r.get_mut().write_all(bytes).map_err(|e| e.to_string())?;
        let mut line = String::new();
        if r.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("connection closed before a status line".into());
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line {line:?}"))?;
        let (mut length, mut close) = (0usize, false);
        loop {
            line.clear();
            if r.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("connection closed inside the head".into());
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((name, value)) = l.split_once(':') {
                let value = value.trim();
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => length = value.parse().map_err(|_| "bad length")?,
                    "connection" => close = value.eq_ignore_ascii_case("close"),
                    _ => {}
                }
            }
        }
        let mut body = vec![0u8; length];
        r.read_exact(&mut body).map_err(|e| e.to_string())?;
        let body = String::from_utf8(body).map_err(|_| "body is not UTF-8")?;
        Ok((Reply { status, body }, close))
    }
}
