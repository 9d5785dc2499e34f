//! The client side of the protocol: one persistent connection, blocking
//! request/response with a read deadline, and the jittered-backoff
//! submit loop that makes the service's backpressure contract usable.

use crate::job::JobSpec;
use crate::proto::{self, field};
use sem_linalg::rng::SplitMix64;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::Duration;

/// Outcome of one `submit` attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Submit {
    /// Admitted under this job id.
    Admitted(u64),
    /// Queue full; the server's retry hint in milliseconds.
    Overloaded { retry_after_ms: u64 },
    /// The daemon is draining and admits nothing.
    Draining,
    /// The spec was rejected (`reason` from the server).
    Rejected(String),
}

/// Resolve an address argument: either a literal `host:port`, or
/// `@<dir>` meaning "read `<dir>/serve.addr`" (how tests and scripts
/// find a daemon that bound an ephemeral port).
pub fn resolve_addr(arg: &str) -> io::Result<String> {
    match arg.strip_prefix('@') {
        Some(dir) => {
            let path = Path::new(dir).join("serve.addr");
            let addr = std::fs::read_to_string(&path)?;
            Ok(addr.trim().to_string())
        }
        None => Ok(arg.to_string()),
    }
}

/// A connected client. Requests are serialized over one TCP stream;
/// every read carries a deadline, so a sick server surfaces as a
/// structured timeout error — never a hang.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `host:port` with `timeout` as both the connect and
    /// per-response deadline.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Client> {
        let sock_addr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad addr {addr:?}: {e}")))?;
        let stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line, return the one response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_line()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// One `submit` attempt, decoded.
    pub fn submit(&mut self, spec: &JobSpec) -> io::Result<Submit> {
        let resp = self.request(&format!("submit {}", spec.to_line()))?;
        let (verb, kv, bare) = proto::parse_response(&resp);
        match (verb.as_str(), bare.first().map(String::as_str)) {
            ("ok", _) => field(&kv, "job")
                .and_then(|v| v.parse().ok())
                .map(Submit::Admitted)
                .ok_or_else(|| bad_response(&resp)),
            ("err", Some("overloaded")) => Ok(Submit::Overloaded {
                retry_after_ms: field(&kv, "retry-after-ms")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(100),
            }),
            ("err", Some("draining")) => Ok(Submit::Draining),
            ("err", _) => Ok(Submit::Rejected(
                field(&kv, "reason").unwrap_or(&resp).to_string(),
            )),
            _ => Err(bad_response(&resp)),
        }
    }

    /// Submit with backpressure-honoring retries: on `overloaded`,
    /// sleep the server's `retry-after-ms` hint plus seeded jitter
    /// (0..=hint/2) and try again, up to `max_attempts`. Returns the
    /// job id, or the terminal outcome that stopped the loop.
    pub fn submit_with_backoff(
        &mut self,
        spec: &JobSpec,
        max_attempts: u32,
        seed: u64,
    ) -> io::Result<Result<u64, Submit>> {
        let mut rng = SplitMix64::new(seed ^ 0x5e4e_5e4e_5e4e_5e4e);
        for attempt in 0..max_attempts.max(1) {
            match self.submit(spec)? {
                Submit::Admitted(id) => return Ok(Ok(id)),
                Submit::Overloaded { retry_after_ms } if attempt + 1 < max_attempts => {
                    let jitter = rng.next_u64() % (retry_after_ms / 2 + 1);
                    std::thread::sleep(Duration::from_millis(retry_after_ms + jitter));
                }
                terminal => return Ok(Err(terminal)),
            }
        }
        unreachable!("loop always returns")
    }

    /// `status <id>` → `(state, attempts)`.
    pub fn status(&mut self, id: u64) -> io::Result<(String, u32)> {
        let resp = self.request(&format!("status {id}"))?;
        let (verb, kv, _) = proto::parse_response(&resp);
        if verb != "ok" {
            return Err(bad_response(&resp));
        }
        let state = field(&kv, "state").ok_or_else(|| bad_response(&resp))?.to_string();
        let attempts = field(&kv, "attempts").and_then(|v| v.parse().ok()).unwrap_or(0);
        Ok((state, attempts))
    }

    /// Poll `status` until the job reaches a terminal state (or the
    /// deadline passes — an error, because a service must bound waits).
    pub fn wait_terminal(&mut self, id: u64, deadline: Duration) -> io::Result<String> {
        let t0 = std::time::Instant::now();
        loop {
            let (state, _) = self.status(id)?;
            if matches!(state.as_str(), "completed" | "failed" | "drained") {
                return Ok(state);
            }
            if t0.elapsed() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("job {id} still {state} after {deadline:?}"),
                ));
            }
            std::thread::sleep(Duration::from_millis(30));
        }
    }

    /// `result <id>` → `(artifact path, fnv1a64 hash)` of the final
    /// checkpoint. The daemon serves local jobs, so the path is
    /// meaningful to the client; the hash lets remote callers verify a
    /// copied artifact.
    pub fn result(&mut self, id: u64) -> io::Result<(String, u64)> {
        let resp = self.request(&format!("result {id}"))?;
        let (verb, kv, _) = proto::parse_response(&resp);
        if verb != "ok" {
            return Err(bad_response(&resp));
        }
        let path = field(&kv, "checkpoint").ok_or_else(|| bad_response(&resp))?.to_string();
        let hash = field(&kv, "hash")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| bad_response(&resp))?;
        Ok((path, hash))
    }

    /// `watch <id>`: stream the job's step records, invoking `on_line`
    /// per JSON line, until the server's `end` line; returns the final
    /// state from that line.
    pub fn watch(&mut self, id: u64, mut on_line: impl FnMut(&str)) -> io::Result<String> {
        let resp = self.request(&format!("watch {id}"))?;
        let (verb, _, _) = proto::parse_response(&resp);
        if verb != "ok" {
            return Err(bad_response(&resp));
        }
        loop {
            let line = self.read_line()?;
            let (verb, kv, _) = proto::parse_response(&line);
            if verb == "end" {
                return Ok(field(&kv, "state").unwrap_or("unknown").to_string());
            }
            on_line(&line);
        }
    }

    /// `stats` → raw `key=value` fields.
    pub fn stats(&mut self) -> io::Result<Vec<(String, String)>> {
        let resp = self.request("stats")?;
        let (verb, kv, _) = proto::parse_response(&resp);
        if verb != "ok" {
            return Err(bad_response(&resp));
        }
        Ok(kv)
    }
}

fn bad_response(resp: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected server response: {resp:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_resolution_reads_indirection_files() {
        assert_eq!(resolve_addr("127.0.0.1:99").unwrap(), "127.0.0.1:99");
        let dir = std::env::temp_dir().join(format!("terasem_addr_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("serve.addr"), "127.0.0.1:4242\n").unwrap();
        let arg = format!("@{}", dir.display());
        assert_eq!(resolve_addr(&arg).unwrap(), "127.0.0.1:4242");
        assert!(resolve_addr("@/nonexistent-dir-xyz").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
