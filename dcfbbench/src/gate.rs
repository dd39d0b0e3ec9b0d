//! Operation accounting and the untimed golden-digest gate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts operations attempted and failed across all threads, keeping
/// the first few failure messages for the report.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    messages: Mutex<Vec<String>>,
}

/// Failure messages kept for the report; the count stays exact.
const KEPT_MESSAGES: usize = 20;

impl Tally {
    /// A tally with nothing attempted.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Records one operation; it failed when `problem` is `Some`.
    pub fn record(&self, problem: Option<String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if let Some(message) = problem {
            self.failed.fetch_add(1, Ordering::Relaxed);
            let mut kept = self
                .messages
                .lock()
                .expect("tally lock poisoned by a panicking worker");
            if kept.len() < KEPT_MESSAGES {
                kept.push(message);
            }
        }
    }

    /// Records one operation that failed unless `ok`.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.record(if ok { None } else { Some(what()) });
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Operations failed so far.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// The kept failure messages.
    pub fn messages(&self) -> Vec<String> {
        self.messages
            .lock()
            .expect("tally lock poisoned by a panicking worker")
            .clone()
    }
}

/// The first digest of every spec a run repeats, by kind of run and
/// trace seed: each later repeat must reproduce it.
#[derive(Debug, Default)]
pub struct Digests {
    first: Mutex<HashMap<(&'static str, u64), String>>,
}

impl Digests {
    /// An empty map.
    pub fn new() -> Self {
        Digests::default()
    }

    /// Records one operation: a `kind` run of the spec with trace seed
    /// `seed` produced `digest`, which must equal the first such run's.
    pub fn check(&self, tally: &Tally, kind: &'static str, seed: u64, digest: &str) {
        let mut first = self
            .first
            .lock()
            .expect("digest lock poisoned by a panicking worker");
        let expect = first
            .entry((kind, seed))
            .or_insert_with(|| digest.to_owned());
        tally.check(expect == digest, || {
            format!("{kind} repeat digest differs (seed {seed})")
        });
    }
}

/// Replays every registry golden through the conformance fixture and
/// records one operation per method: the digest must match the
/// checked-in golden byte for byte.
pub fn check_goldens(tally: &Tally) {
    let image = dcfb_conformance::golden::fixture_image();
    let goldens = match dcfb_conformance::golden::goldens() {
        Ok(g) => g,
        Err(e) => {
            tally.record(Some(format!("golden table unreadable: {e}")));
            return;
        }
    };
    tally.check(!goldens.is_empty(), || "golden table is empty".to_owned());
    for (method, golden) in goldens {
        match dcfb_conformance::golden::fixture_digest(&image, method, false) {
            Ok(digest) => tally.check(digest == golden, || {
                format!("golden digest mismatch for {method}")
            }),
            Err(e) => tally.record(Some(format!("golden run of {method} failed: {e}"))),
        }
    }
}
