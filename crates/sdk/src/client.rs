//! The blocking client: one `TcpStream` per request (the server speaks
//! `Connection: close`), hand-rolled HTTP/1.1 framing, typed replies.

use crate::wire::{self, JobSpec, ResultReply, StatsReply, StatusReply, SubmitReply};
use dcfb_errors::DcfbError;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Per-request socket timeout: generous enough for the long-poll
/// progress endpoint (which waits up to [`Client::LONG_POLL_MS`]).
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking client for one `dcfb serve` instance.
#[derive(Clone, Debug)]
pub struct Client {
    addr: String,
}

impl Client {
    /// Longest wait the progress long-poll asks the server for.
    pub const LONG_POLL_MS: u64 = 10_000;

    /// A client for the server at `addr` (`HOST:PORT`). No connection
    /// is opened until the first request.
    pub fn new(addr: impl Into<String>) -> Self {
        Client { addr: addr.into() }
    }

    /// The address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `GET /healthz` — `Ok` iff the server is up and answering.
    ///
    /// # Errors
    ///
    /// [`DcfbError::Protocol`] when the server is unreachable or
    /// answers with anything but 200.
    pub fn health(&self) -> Result<(), DcfbError> {
        self.request("GET", "/healthz", None).map(|_| ())
    }

    /// Submits a job; returns whether it was cached, coalesced, or
    /// newly queued.
    ///
    /// # Errors
    ///
    /// [`DcfbError::Protocol`] for transport failures or a rejected
    /// submission (unknown workload/method, full queue).
    pub fn submit(&self, spec: &JobSpec) -> Result<SubmitReply, DcfbError> {
        let body = self.request("POST", "/v1/jobs", Some(&spec.to_json()))?;
        SubmitReply::from_json(&body)
    }

    /// Fetches a job's current state.
    ///
    /// # Errors
    ///
    /// [`DcfbError::Protocol`] for transport failures or an unknown
    /// job id.
    pub fn status(&self, job: &str) -> Result<StatusReply, DcfbError> {
        let body = self.request("GET", &format!("/v1/jobs/{job}"), None)?;
        StatusReply::from_json(&body)
    }

    /// Long-polls a job's progress: the server replies as soon as the
    /// retired-instruction count moves past `since`, the job reaches a
    /// terminal state, or `wait_ms` elapses — whichever happens first.
    ///
    /// # Errors
    ///
    /// [`DcfbError::Protocol`] for transport failures or an unknown
    /// job id.
    pub fn progress(&self, job: &str, since: u64, wait_ms: u64) -> Result<StatusReply, DcfbError> {
        let path = format!("/v1/jobs/{job}/progress?since={since}&wait_ms={wait_ms}");
        let body = self.request("GET", &path, None)?;
        StatusReply::from_json(&body)
    }

    /// Fetches a finished job's result.
    ///
    /// # Errors
    ///
    /// [`DcfbError::Protocol`] when the job is unknown, not finished,
    /// or its cached result was evicted (resubmit to recompute).
    pub fn result(&self, job: &str) -> Result<ResultReply, DcfbError> {
        let body = self.request("GET", &format!("/v1/jobs/{job}/result"), None)?;
        ResultReply::from_json(&body)
    }

    /// Fetches the server's counters and queue shape.
    ///
    /// # Errors
    ///
    /// [`DcfbError::Protocol`] for transport failures.
    pub fn stats(&self) -> Result<StatsReply, DcfbError> {
        let body = self.request("GET", "/v1/stats", None)?;
        StatsReply::from_json(&body)
    }

    /// Asks the server to shut down cleanly (the SIGTERM equivalent):
    /// it stops accepting, cancels running attempts, persists state,
    /// and exits.
    ///
    /// # Errors
    ///
    /// [`DcfbError::Protocol`] for transport failures.
    pub fn shutdown(&self) -> Result<(), DcfbError> {
        self.request("POST", "/v1/shutdown", Some("{}")).map(|_| ())
    }

    /// Streams a job's progress via repeated long-polls, invoking
    /// `observe` on every update, until the job reaches a terminal
    /// state; returns the final status.
    ///
    /// # Errors
    ///
    /// [`DcfbError::Protocol`] for transport failures mid-stream.
    pub fn stream_progress(
        &self,
        job: &str,
        mut observe: impl FnMut(&StatusReply),
    ) -> Result<StatusReply, DcfbError> {
        let mut since = 0u64;
        loop {
            let status = self.progress(job, since, Self::LONG_POLL_MS)?;
            observe(&status);
            if status.state.is_terminal() {
                return Ok(status);
            }
            since = status.instrs;
        }
    }

    /// Blocks until the job finishes, then fetches its result.
    ///
    /// # Errors
    ///
    /// [`DcfbError::Protocol`] for transport failures, and a protocol
    /// error carrying the job's diagnostic if it failed terminally.
    pub fn wait(&self, job: &str) -> Result<ResultReply, DcfbError> {
        let last = self.stream_progress(job, |_| {})?;
        if let Some(error) = last.error {
            return Err(DcfbError::protocol(format!("job {job} failed: {error}")));
        }
        self.result(job)
    }

    /// One request/response exchange. Returns the body of a 2xx reply;
    /// any other status becomes a protocol error carrying the server's
    /// `error` field when present.
    fn request(&self, method: &str, path: &str, body: Option<&str>) -> Result<String, DcfbError> {
        let mut stream = TcpStream::connect(&self.addr)
            .map_err(|e| DcfbError::protocol(format!("connect {}: {e}", self.addr)))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| DcfbError::protocol(format!("socket setup: {e}")))?;
        let payload = body.unwrap_or("");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            self.addr,
            payload.len(),
        );
        stream
            .write_all(request.as_bytes())
            .map_err(|e| DcfbError::protocol(format!("send {method} {path}: {e}")))?;
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| DcfbError::protocol(format!("read {method} {path}: {e}")))?;
        let text = String::from_utf8(raw)
            .map_err(|_| DcfbError::protocol("response is not UTF-8".to_owned()))?;
        let (status, reply_body) = parse_response(&text)?;
        if (200..300).contains(&status) {
            Ok(reply_body)
        } else {
            let detail = wire::parse_object(&reply_body)
                .ok()
                .and_then(|obj| wire::opt_str(&obj, "error"))
                .unwrap_or_else(|| reply_body.trim().to_owned());
            Err(DcfbError::protocol(format!(
                "{method} {path}: HTTP {status}: {detail}"
            )))
        }
    }
}

/// Splits a raw HTTP/1.1 response into `(status code, body)`. The
/// server closes the connection after each reply, so the body is
/// everything after the header block (Content-Length is advisory).
fn parse_response(text: &str) -> Result<(u16, String), DcfbError> {
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| DcfbError::protocol("response has no header/body separator".to_owned()))?;
    let status_line = head.lines().next().unwrap_or("");
    let code = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| DcfbError::protocol(format!("bad status line {status_line:?}")))?;
    Ok((code, body.to_owned()))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn parses_responses_and_rejects_garbage() {
        let (code, body) =
            parse_response("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(code, 200);
        assert_eq!(body, "{}");
        assert!(parse_response("not http").is_err());
        assert!(parse_response("HTTP/1.1 abc\r\n\r\n").is_err());
    }

    #[test]
    fn unreachable_server_is_a_protocol_error() {
        // Port 1 on localhost is never listening in the test sandbox.
        let client = Client::new("127.0.0.1:1");
        assert!(matches!(client.health(), Err(DcfbError::Protocol { .. })));
    }
}
