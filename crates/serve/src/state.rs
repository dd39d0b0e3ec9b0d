//! Server-side job state and its crash-safe persistence.
//!
//! The whole job table persists through the bench checkpoint machinery
//! (flat JSON object of strings) under a `schema` marker plus one
//! `job:<id>` entry per job, each holding a flat-JSON record of the
//! spec, its state, and — once done — the rendered result and its
//! digest. The file is rewritten on every state transition, so a
//! server killed at any instant loses at most the in-flight
//! transition; recovery reads leniently (the same salvage rules as the
//! experiment checkpoint) and re-queues every job that was queued or
//! running when the process died.

use crate::cache::ResultCache;
use dcfb_bench::checkpoint::Checkpoint;
use dcfb_errors::json::ObjectWriter;
use dcfb_errors::DcfbError;
use dcfb_sdk::wire::{self, JobSpec, JobState};
use dcfb_sim::machine::RunControl;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Schema marker written into every persisted state file.
pub const SERVE_STATE_SCHEMA: &str = "dcfb-serve-state-v1";

/// One job the server knows about.
#[derive(Clone, Debug)]
pub struct JobEntry {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Life-cycle state.
    pub state: JobState,
    /// Terminal failure diagnostic.
    pub error: Option<String>,
    /// Live progress cell, present while running.
    pub progress: Option<Arc<AtomicU64>>,
    /// The running attempt's control, for shutdown cancellation.
    pub control: Option<RunControl>,
}

impl JobEntry {
    /// A freshly queued entry for `spec`.
    pub fn queued(spec: JobSpec) -> Self {
        JobEntry {
            spec,
            state: JobState::Queued,
            error: None,
            progress: None,
            control: None,
        }
    }

    /// The instruction count the running attempt last published.
    pub fn instrs(&self) -> u64 {
        self.progress
            .as_ref()
            .map(|p| p.load(std::sync::atomic::Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The coarse phase reported on the status endpoints.
    pub fn phase(&self) -> &'static str {
        match self.state {
            JobState::Queued => "queued",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Running => {
                if self.instrs() < self.spec.warmup {
                    "warmup"
                } else {
                    "measure"
                }
            }
        }
    }
}

/// Everything behind the server's one state mutex: the job table, the
/// FIFO queue of job ids awaiting a worker, and the result cache.
#[derive(Debug)]
pub struct ServerState {
    /// Jobs by id (the spec digest).
    pub jobs: HashMap<String, JobEntry>,
    /// Ids waiting for a worker, submission order.
    pub queue: VecDeque<String>,
    /// Memoized results.
    pub cache: ResultCache,
}

impl ServerState {
    /// An empty state with the given cache byte budget.
    pub fn new(cache_budget: usize) -> Self {
        ServerState {
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            cache: ResultCache::new(cache_budget),
        }
    }

    /// Jobs currently in `state`.
    pub fn count(&self, state: JobState) -> u64 {
        self.jobs.values().filter(|e| e.state == state).count() as u64
    }

    /// Renders the whole job table as a checkpoint document.
    pub fn to_checkpoint(&self) -> Checkpoint {
        let mut cp = Checkpoint::new();
        cp.put("schema", SERVE_STATE_SCHEMA);
        let mut ids: Vec<&String> = self.jobs.keys().collect();
        ids.sort();
        for id in ids {
            if let Some(entry) = self.jobs.get(id) {
                cp.put(&format!("job:{id}"), &render_record(id, entry, &self.cache));
            }
        }
        cp
    }

    /// Persists the job table to `path` (no-op when `path` is `None`).
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Io`] on filesystem failure.
    pub fn persist(&self, path: Option<&Path>) -> Result<(), DcfbError> {
        match path {
            Some(p) => self.to_checkpoint().save(p),
            None => Ok(()),
        }
    }

    /// Rebuilds state from a persisted file: done jobs repopulate the
    /// result cache (rendered form only), failed jobs keep their
    /// diagnostic, and jobs that were queued or running when the
    /// server died are re-queued. Returns the lenient-load salvage
    /// reason, if the file was damaged.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Io`] when the file exists but cannot be
    /// read.
    pub fn recover(path: &Path, cache_budget: usize) -> Result<(Self, Option<String>), DcfbError> {
        let (cp, warn) = Checkpoint::load_lenient(path)?;
        let mut state = ServerState::new(cache_budget);
        for (key, value) in cp.entries() {
            let Some(_) = key.strip_prefix("job:") else {
                continue;
            };
            // A record that fails to parse is dropped, like the lenient
            // reader drops a torn tail entry.
            let Ok(record) = wire::parse_object(value) else {
                continue;
            };
            let Ok(spec) = JobSpec::from_object(&record) else {
                continue;
            };
            let id = spec.digest();
            let recorded = wire::opt_str(&record, "state").unwrap_or_default();
            let mut entry = JobEntry::queued(spec);
            match JobState::parse(&recorded) {
                Ok(JobState::Done) => {
                    let result = wire::opt_str(&record, "result");
                    let digest = wire::opt_str(&record, "digest");
                    if let (Some(result), Some(digest)) = (result, digest) {
                        entry.state = JobState::Done;
                        state.cache.insert(&id, result, digest, None);
                    } else {
                        // Done but the result record is torn: redo it.
                        state.queue.push_back(id.clone());
                    }
                }
                Ok(JobState::Failed) => {
                    entry.state = JobState::Failed;
                    entry.error = Some(
                        wire::opt_str(&record, "error")
                            .unwrap_or_else(|| "unrecorded failure".to_owned()),
                    );
                }
                // Queued, running, or unparseable: the work was not
                // finished — run it (again).
                _ => {
                    state.queue.push_back(id.clone());
                }
            }
            state.jobs.insert(id, entry);
        }
        Ok((state, warn))
    }
}

/// Renders one job's persistent record (flat JSON, stored as a string
/// value inside the checkpoint object).
fn render_record(id: &str, entry: &JobEntry, cache: &ResultCache) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("workload", &entry.spec.workload)
        .str_field("method", &entry.spec.method)
        .u64_field("warmup", entry.spec.warmup)
        .u64_field("measure", entry.spec.measure)
        .u64_field("seed", entry.spec.seed)
        .str_field("state", entry.state.name());
    if let Some(error) = &entry.error {
        w.str_field("error", error);
    }
    if entry.state == JobState::Done {
        if let Some((json_text, digest)) = cache.peek(id) {
            w.str_field("digest", digest).str_field("result", json_text);
        }
    }
    w.finish()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            workload: "Web Search".to_owned(),
            method: "Baseline".to_owned(),
            warmup: 100,
            measure: 400,
            seed,
        }
    }

    #[test]
    fn roundtrips_every_state_through_a_file() {
        let dir = std::env::temp_dir().join("dcfb-serve-state-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let mut state = ServerState::new(1 << 20);

        let done = spec(1);
        let done_id = done.digest();
        let mut e = JobEntry::queued(done);
        e.state = JobState::Done;
        state.jobs.insert(done_id.clone(), e);
        state
            .cache
            .insert(&done_id, "{\"cycles\":9}".to_owned(), "dg".to_owned(), None);

        let failed = spec(2);
        let failed_id = failed.digest();
        let mut e = JobEntry::queued(failed);
        e.state = JobState::Failed;
        e.error = Some("boom \"quoted\"".to_owned());
        state.jobs.insert(failed_id.clone(), e);

        let running = spec(3);
        let running_id = running.digest();
        let mut e = JobEntry::queued(running);
        e.state = JobState::Running;
        state.jobs.insert(running_id.clone(), e);

        let queued = spec(4);
        let queued_id = queued.digest();
        state
            .jobs
            .insert(queued_id.clone(), JobEntry::queued(queued));
        state.queue.push_back(queued_id.clone());

        state.persist(Some(&path)).unwrap();
        let (mut back, warn) = ServerState::recover(&path, 1 << 20).unwrap();
        assert!(warn.is_none());
        assert_eq!(back.jobs.len(), 4);
        assert_eq!(back.jobs[&done_id].state, JobState::Done);
        assert_eq!(
            back.cache.get(&done_id).unwrap(),
            ("{\"cycles\":9}".to_owned(), "dg".to_owned())
        );
        assert_eq!(back.jobs[&failed_id].state, JobState::Failed);
        assert_eq!(
            back.jobs[&failed_id].error.as_deref(),
            Some("boom \"quoted\"")
        );
        // Running and queued both come back as queued work.
        assert_eq!(back.jobs[&running_id].state, JobState::Queued);
        assert_eq!(back.jobs[&queued_id].state, JobState::Queued);
        let mut queued_ids: Vec<String> = back.queue.iter().cloned().collect();
        queued_ids.sort();
        let mut want = vec![running_id, queued_id];
        want.sort();
        assert_eq!(queued_ids, want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_recovers_empty_and_damage_is_salvaged() {
        let dir = std::env::temp_dir().join("dcfb-serve-state-test-2");
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("absent.json");
        let (state, warn) = ServerState::recover(&missing, 1024).unwrap();
        assert!(state.jobs.is_empty());
        assert!(warn.is_none());

        // A file truncated mid-write salvages the complete prefix:
        // tearing the tail loses at most the last record.
        let mut full = ServerState::new(1024);
        for seed in [9, 10] {
            let s = spec(seed);
            let id = s.digest();
            full.jobs.insert(id.clone(), JobEntry::queued(s));
            full.queue.push_back(id);
        }
        let text = full.to_checkpoint().to_json();
        let torn = dir.join("torn.json");
        std::fs::write(&torn, &text[..text.len() - 4]).unwrap();
        let (back, warn) = ServerState::recover(&torn, 1024).unwrap();
        assert!(warn.is_some());
        assert_eq!(back.jobs.len(), 1, "the complete first record survives");
        std::fs::remove_file(&torn).unwrap();
    }

    #[test]
    fn phase_tracks_progress_cell() {
        let s = spec(5);
        let mut e = JobEntry::queued(s);
        assert_eq!(e.phase(), "queued");
        e.state = JobState::Running;
        let cell = Arc::new(AtomicU64::new(0));
        e.progress = Some(Arc::clone(&cell));
        assert_eq!(e.phase(), "warmup");
        cell.store(250, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(e.phase(), "measure");
        e.state = JobState::Done;
        assert_eq!(e.phase(), "done");
    }
}
