//! Wire types shared by the `dcfb serve` server and the SDK client:
//! job specifications with their digest identity, job states, and the
//! reply shapes of every endpoint.
//!
//! A job is identified by the digest of its canonical form
//! (`workload|method|warmup|measure|seed`) — the same string is the
//! memoization cache key, so identical submissions coalesce no matter
//! which client sent them.
//!
//! Bodies are flat JSON objects read and written with
//! `dcfb_errors::json`; the field helpers below turn a malformed body
//! or a missing or mistyped field into [`DcfbError::Protocol`], so a
//! malformed peer never panics this side of the connection.

use dcfb_errors::json::{self, JsonValue, ObjectWriter};
use dcfb_errors::DcfbError;

/// Parses one flat JSON object off the wire.
///
/// # Errors
///
/// [`DcfbError::Protocol`] naming the byte offset of the first problem.
pub fn parse_object(text: &str) -> Result<json::Object, DcfbError> {
    json::parse_object(text).map_err(|e| DcfbError::protocol(format!("bad JSON {e}")))
}

/// Required string field, or a protocol error naming the key.
pub fn want_str(obj: &[(String, JsonValue)], key: &str) -> Result<String, DcfbError> {
    opt_str(obj, key).ok_or_else(|| DcfbError::protocol(format!("missing string field {key:?}")))
}

/// Required unsigned-integer field, or a protocol error naming the key.
/// Negative and over-range numbers do not qualify.
pub fn want_u64(obj: &[(String, JsonValue)], key: &str) -> Result<u64, DcfbError> {
    json::field(obj, key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| DcfbError::protocol(format!("missing integer field {key:?}")))
}

/// Optional boolean field, defaulting to `false`.
pub fn opt_bool(obj: &[(String, JsonValue)], key: &str) -> bool {
    json::field(obj, key)
        .and_then(JsonValue::as_bool)
        .unwrap_or(false)
}

/// Optional unsigned-integer field, defaulting to zero.
pub fn opt_u64(obj: &[(String, JsonValue)], key: &str) -> u64 {
    json::field(obj, key)
        .and_then(JsonValue::as_u64)
        .unwrap_or(0)
}

/// Optional string field; `None` when absent or not a string.
pub fn opt_str(obj: &[(String, JsonValue)], key: &str) -> Option<String> {
    json::field(obj, key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
}

/// Everything that determines a simulation's result: the workload, the
/// registry method, the window, and the trace seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload name (a `dcfb_workloads` registry entry).
    pub workload: String,
    /// Method name (a `dcfb_prefetch` registry row).
    pub method: String,
    /// Warm-only instructions before measurement.
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
    /// Trace seed driving the workload walker.
    pub seed: u64,
}

impl JobSpec {
    /// The canonical identity string the digest folds over.
    pub fn canonical(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.workload, self.method, self.warmup, self.measure, self.seed
        )
    }

    /// 16-hex-digit job identity: a splitmix64 fold over the canonical
    /// string. This is both the job id on the wire and the server's
    /// memoization cache key.
    pub fn digest(&self) -> String {
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for b in self.canonical().bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        format!("{h:016x}")
    }

    /// Renders the submission body.
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.str_field("workload", &self.workload)
            .str_field("method", &self.method)
            .u64_field("warmup", self.warmup)
            .u64_field("measure", self.measure)
            .u64_field("seed", self.seed);
        w.finish()
    }

    /// Parses a submission body.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Protocol`] for malformed JSON or missing
    /// fields.
    pub fn from_json(text: &str) -> Result<Self, DcfbError> {
        let obj = parse_object(text)?;
        JobSpec::from_object(&obj)
    }

    /// Builds a spec from an already-parsed flat object.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Protocol`] naming the first missing field.
    pub fn from_object(obj: &[(String, JsonValue)]) -> Result<Self, DcfbError> {
        Ok(JobSpec {
            workload: want_str(obj, "workload")?,
            method: want_str(obj, "method")?,
            warmup: want_u64(obj, "warmup")?,
            measure: want_u64(obj, "measure")?,
            seed: want_u64(obj, "seed")?,
        })
    }
}

/// The one-way life cycle of a served job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished; the result is fetchable.
    Done,
    /// Every permitted attempt failed; `error` explains why.
    Failed,
}

impl JobState {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Parses a wire name.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Protocol`] for an unknown state.
    pub fn parse(name: &str) -> Result<Self, DcfbError> {
        match name {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            other => Err(DcfbError::protocol(format!("unknown job state {other:?}"))),
        }
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// Reply to `POST /v1/jobs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitReply {
    /// Job id (the spec digest).
    pub job: String,
    /// State at submission time.
    pub state: JobState,
    /// The result was already memoized; no new work was scheduled.
    pub cached: bool,
    /// An identical job was already queued/running; this submission
    /// attached to it.
    pub coalesced: bool,
}

impl SubmitReply {
    /// Parses a reply body.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Protocol`] for malformed JSON or fields.
    pub fn from_json(text: &str) -> Result<Self, DcfbError> {
        let obj = parse_object(text)?;
        Ok(SubmitReply {
            job: want_str(&obj, "job")?,
            state: JobState::parse(&want_str(&obj, "state")?)?,
            cached: opt_bool(&obj, "cached"),
            coalesced: opt_bool(&obj, "coalesced"),
        })
    }
}

/// Reply to `GET /v1/jobs/<id>` and the long-poll progress endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatusReply {
    /// Job id.
    pub job: String,
    /// Current state.
    pub state: JobState,
    /// Lifetime instructions retired by the running attempt (0 while
    /// queued; final count once terminal).
    pub instrs: u64,
    /// Coarse phase: `"queued"`, `"warmup"`, `"measure"`, `"done"`, or
    /// `"failed"`.
    pub phase: String,
    /// Failure diagnostic, present iff `state == Failed`.
    pub error: Option<String>,
}

impl StatusReply {
    /// Parses a reply body.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Protocol`] for malformed JSON or fields.
    pub fn from_json(text: &str) -> Result<Self, DcfbError> {
        let obj = parse_object(text)?;
        Ok(StatusReply {
            job: want_str(&obj, "job")?,
            state: JobState::parse(&want_str(&obj, "state")?)?,
            instrs: opt_u64(&obj, "instrs"),
            phase: want_str(&obj, "phase")?,
            error: opt_str(&obj, "error"),
        })
    }
}

/// Reply to `GET /v1/jobs/<id>/result`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResultReply {
    /// Job id.
    pub job: String,
    /// `SimReport::digest()` of the result — the integrity check a
    /// client can compare against a direct run.
    pub digest: String,
    /// The rendered report JSON, exactly as `dcfb run` would print it.
    pub report_json: String,
}

impl ResultReply {
    /// Parses a reply body.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Protocol`] for malformed JSON or fields.
    pub fn from_json(text: &str) -> Result<Self, DcfbError> {
        let obj = parse_object(text)?;
        Ok(ResultReply {
            job: want_str(&obj, "job")?,
            digest: want_str(&obj, "digest")?,
            report_json: want_str(&obj, "report")?,
        })
    }
}

/// Reply to `GET /v1/stats`: the server's counters and queue shape.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// HTTP requests parsed and routed.
    pub requests: u64,
    /// Submissions answered from the memoized cache.
    pub cache_hits: u64,
    /// Submissions coalesced onto an identical queued/running job.
    pub coalesced: u64,
    /// Cache entries evicted under the byte budget.
    pub evictions: u64,
    /// Simulations actually executed by the worker pool.
    pub executed: u64,
    /// Rendered bytes currently held by the result cache.
    pub cache_bytes: u64,
    /// Entries currently held by the result cache.
    pub cache_entries: u64,
    /// Jobs waiting for a worker.
    pub queued: u64,
    /// Jobs being simulated right now.
    pub running: u64,
    /// Jobs finished successfully.
    pub done: u64,
    /// Jobs that failed terminally.
    pub failed: u64,
    /// Worker threads draining the queue.
    pub workers: u64,
}

impl StatsReply {
    /// Parses a reply body (missing fields read as zero, so old
    /// clients survive new servers and vice versa).
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Protocol`] for malformed JSON.
    pub fn from_json(text: &str) -> Result<Self, DcfbError> {
        let obj = parse_object(text)?;
        Ok(StatsReply {
            requests: opt_u64(&obj, "serve_requests"),
            cache_hits: opt_u64(&obj, "serve_cache_hits"),
            coalesced: opt_u64(&obj, "serve_coalesced"),
            evictions: opt_u64(&obj, "serve_evictions"),
            executed: opt_u64(&obj, "executed"),
            cache_bytes: opt_u64(&obj, "cache_bytes"),
            cache_entries: opt_u64(&obj, "cache_entries"),
            queued: opt_u64(&obj, "queued"),
            running: opt_u64(&obj, "running"),
            done: opt_u64(&obj, "done"),
            failed: opt_u64(&obj, "failed"),
            workers: opt_u64(&obj, "workers"),
        })
    }
}

/// One splitmix64 scramble step (the workspace's standard cheap mixer,
/// also used by the supervisor's backoff jitter).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            workload: "OLTP (DB A)".to_owned(),
            method: "SN4L+Dis+BTB".to_owned(),
            warmup: 1_000,
            measure: 5_000,
            seed: 42,
        }
    }

    #[test]
    fn digest_is_stable_and_identity_sensitive() {
        let a = spec();
        assert_eq!(a.digest(), spec().digest());
        assert_eq!(a.digest().len(), 16);
        let mut b = spec();
        b.seed = 43;
        assert_ne!(a.digest(), b.digest());
        let mut c = spec();
        c.method = "Baseline".to_owned();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let a = spec();
        let back = JobSpec::from_json(&a.to_json()).unwrap();
        assert_eq!(a, back);
        assert!(matches!(
            JobSpec::from_json(r#"{"workload": "x"}"#),
            Err(DcfbError::Protocol { .. })
        ));
    }

    #[test]
    fn missing_required_fields_are_protocol_errors() {
        let obj = parse_object(r#"{"n": 3}"#).unwrap();
        assert!(matches!(
            want_str(&obj, "name"),
            Err(DcfbError::Protocol { .. })
        ));
        assert!(matches!(
            want_u64(&obj, "count"),
            Err(DcfbError::Protocol { .. })
        ));
        assert_eq!(opt_u64(&obj, "count"), 0);
        assert_eq!(opt_str(&obj, "name"), None);
        assert!(!opt_bool(&obj, "missing"));
    }

    #[test]
    fn field_helpers_reject_mistyped_numbers_and_keep_the_last_duplicate() {
        let obj = parse_object(
            r#"{"neg": -3, "big": 18446744073709551616, "frac": 2.5, "s": "first", "s": "last"}"#,
        )
        .unwrap();
        for key in ["neg", "big", "frac"] {
            assert!(
                matches!(want_u64(&obj, key), Err(DcfbError::Protocol { .. })),
                "{key}"
            );
        }
        assert_eq!(want_str(&obj, "s").unwrap(), "last");
        // Syntax errors are protocol errors that name the byte offset.
        let err = parse_object("{\"a\": }").unwrap_err();
        assert!(matches!(err, DcfbError::Protocol { .. }));
        assert!(err.to_string().contains("bad JSON at byte 6"), "{err}");
        assert!(parse_object("[1]").is_err());
    }

    #[test]
    fn states_roundtrip_and_classify() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
        ] {
            assert_eq!(JobState::parse(s.name()).unwrap(), s);
        }
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(!JobState::Queued.is_terminal());
        assert!(JobState::parse("exploded").is_err());
    }

    #[test]
    fn replies_parse() {
        let submit = SubmitReply::from_json(
            r#"{"job":"ab","state":"queued","cached":false,"coalesced":true}"#,
        )
        .unwrap();
        assert!(submit.coalesced);
        assert!(!submit.cached);
        let status = StatusReply::from_json(
            r#"{"job":"ab","state":"failed","instrs":12,"phase":"failed","error":"boom"}"#,
        )
        .unwrap();
        assert_eq!(status.error.as_deref(), Some("boom"));
        let result =
            ResultReply::from_json(r#"{"job":"ab","digest":"d","report":"{\"x\":1}"}"#).unwrap();
        assert_eq!(result.report_json, r#"{"x":1}"#);
        let stats = StatsReply::from_json(r#"{"serve_requests":3,"queued":1}"#).unwrap();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.queued, 1);
        assert_eq!(stats.done, 0);
    }
}
