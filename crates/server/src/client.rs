//! Blocking line-protocol client, shared by `repro loadgen` and the
//! integration tests. One request line out, one response line back.

use crate::json::{parse, Value};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::time::Duration;

enum Conn {
    Unix(std::os::unix::net::UnixStream),
    Tcp(std::net::TcpStream),
}

pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

impl Client {
    pub fn connect_unix(path: &Path) -> std::io::Result<Client> {
        let s = std::os::unix::net::UnixStream::connect(path)?;
        let w = s.try_clone()?;
        Ok(Client {
            reader: BufReader::new(Conn::Unix(s)),
            writer: Conn::Unix(w),
        })
    }

    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        let s = std::net::TcpStream::connect(addr)?;
        let w = s.try_clone()?;
        Ok(Client {
            reader: BufReader::new(Conn::Tcp(s)),
            writer: Conn::Tcp(w),
        })
    }

    /// Retries the connect until the daemon is listening (it binds before it
    /// serves, so a short window suffices).
    pub fn connect_unix_retry(path: &Path, timeout: Duration) -> std::io::Result<Client> {
        let t0 = std::time::Instant::now();
        loop {
            match Client::connect_unix(path) {
                Ok(c) => return Ok(c),
                Err(e) if t0.elapsed() > timeout => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Sends one request line and reads the matching response line.
    pub fn call(&mut self, req: &Value) -> std::io::Result<Value> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut resp = String::new();
        loop {
            match self.reader.read_line(&mut resp) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(_) if resp.ends_with('\n') => break,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
        parse(resp.trim()).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Like [`Client::call`], but retries `overloaded` responses through the
    /// given [`Backoff`] until it succeeds or the retry budget is spent (the
    /// last `overloaded` response is then returned for the caller to
    /// account). Honours the server's `retry_after_ms` hint when present.
    pub fn call_retrying(&mut self, req: &Value, backoff: &mut Backoff) -> std::io::Result<Value> {
        loop {
            let resp = self.call(req)?;
            let overloaded = resp
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Value::as_str)
                == Some("overloaded");
            if !overloaded {
                return Ok(resp);
            }
            let hint = resp.get("retry_after_ms").and_then(Value::as_u64);
            match backoff.next_delay_ms(hint) {
                Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
                None => return Ok(resp),
            }
        }
    }

    /// Calls the `metrics` verb and returns the Prometheus text exposition
    /// (see [`crate::metrics::parse_exposition`] for the inverse).
    pub fn metrics_text(&mut self) -> std::io::Result<String> {
        let resp = self.call(&crate::json::obj(vec![(
            "verb",
            Value::Str("metrics".to_string()),
        )]))?;
        resp.get("exposition")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "metrics response missing \"exposition\"",
                )
            })
    }
}

/// Seeded, jittered exponential backoff for `overloaded` retries.
///
/// Delays double from `base_ms` up to `cap_ms`; when the server supplies a
/// `retry_after_ms` hint, the hint replaces the exponential term. Either way
/// the actual sleep is jittered uniformly in `[d/2, 3d/2)` so a burst of
/// shed clients does not retry in lockstep. The jitter source is a SplitMix64
/// stream from the caller's seed — fully deterministic, no wall clock.
pub struct Backoff {
    state: u64,
    base_ms: u64,
    cap_ms: u64,
    budget: u32,
    /// Retries taken so far (callers surface this in their summaries).
    pub retries: u64,
}

impl Backoff {
    pub fn new(seed: u64, budget: u32) -> Backoff {
        Backoff {
            state: seed,
            base_ms: 10,
            cap_ms: 2000,
            budget,
            retries: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64: tiny, seedable, and plenty for jitter.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next jittered delay in ms, or `None` once the budget is spent.
    pub fn next_delay_ms(&mut self, hint_ms: Option<u64>) -> Option<u64> {
        if self.retries >= u64::from(self.budget) {
            return None;
        }
        let attempt = self.retries.min(16) as u32;
        let exp = self
            .base_ms
            .saturating_mul(1u64 << attempt)
            .min(self.cap_ms);
        let base = hint_ms
            .map(|h| h.clamp(1, self.cap_ms))
            .unwrap_or(exp)
            .max(1);
        self.retries += 1;
        Some(base / 2 + self.next_u64() % base)
    }
}

#[cfg(test)]
mod tests {
    use super::Backoff;

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let mut a = Backoff::new(0x5eed, 100);
        let mut b = Backoff::new(0x5eed, 100);
        let da: Vec<_> = (0..20).map(|_| a.next_delay_ms(None)).collect();
        let db: Vec<_> = (0..20).map(|_| b.next_delay_ms(None)).collect();
        assert_eq!(da, db);
        let mut c = Backoff::new(0xfeed, 100);
        let dc: Vec<_> = (0..20).map(|_| c.next_delay_ms(None)).collect();
        assert_ne!(da, dc, "different seeds must jitter differently");
    }

    #[test]
    fn backoff_grows_exponentially_and_respects_the_cap() {
        let mut b = Backoff::new(7, 1000);
        // Attempt k has base min(10 * 2^k, 2000); jitter keeps it in
        // [base/2, 3*base/2).
        for k in 0..20u32 {
            let base = 10u64.saturating_mul(1 << k.min(16)).min(2000);
            let d = b.next_delay_ms(None).unwrap();
            assert!(
                d >= base / 2 && d < base + base / 2 + 1,
                "attempt {k}: delay {d} outside [{}, {})",
                base / 2,
                base + base / 2
            );
        }
    }

    #[test]
    fn backoff_honours_the_server_hint() {
        let mut b = Backoff::new(42, 1000);
        for _ in 0..50 {
            let d = b.next_delay_ms(Some(600)).unwrap();
            assert!(
                (300..900).contains(&d),
                "hinted delay {d} outside [300, 900)"
            );
        }
    }

    #[test]
    fn backoff_budget_exhausts() {
        let mut b = Backoff::new(1, 3);
        assert!(b.next_delay_ms(None).is_some());
        assert!(b.next_delay_ms(None).is_some());
        assert!(b.next_delay_ms(None).is_some());
        assert!(b.next_delay_ms(None).is_none(), "budget of 3 spent");
        assert_eq!(b.retries, 3);
    }
}
