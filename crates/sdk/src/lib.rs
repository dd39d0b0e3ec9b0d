//! # dcfb-sdk
//!
//! The thin blocking client for the `dcfb serve` job server, plus the
//! wire protocol both sides share.
//!
//! The protocol is minimal HTTP/1.1 with flat-JSON bodies — no
//! external HTTP or JSON dependency: the HTTP framing is hand-rolled
//! here and the JSON codec is `dcfb_errors::json`. A client submits a
//! [`JobSpec`], polls or long-polls its progress, and fetches the
//! rendered `SimReport` (with its digest for integrity checking)
//! once the job is done:
//!
//! ```no_run
//! use dcfb_sdk::{Client, JobSpec};
//!
//! # fn main() -> Result<(), dcfb_errors::DcfbError> {
//! let client = Client::new("127.0.0.1:7070");
//! let spec = JobSpec {
//!     workload: "OLTP (DB A)".to_owned(),
//!     method: "SN4L+Dis+BTB".to_owned(),
//!     warmup: 100_000,
//!     measure: 1_000_000,
//!     seed: 42,
//! };
//! let submitted = client.submit(&spec)?;
//! let result = client.wait(&submitted.job)?;
//! println!("{} -> {}", result.digest, result.report_json);
//! # Ok(())
//! # }
//! ```
//!
//! Identical specs share one job id ([`JobSpec::digest`]): repeat
//! submissions are cache hits and concurrent duplicates coalesce onto
//! the one running simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod wire;

pub use client::Client;
pub use wire::{JobSpec, JobState, ResultReply, StatsReply, StatusReply, SubmitReply};
