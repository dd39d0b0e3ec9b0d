//! Files written before the JSON codec was unified still load: a serve
//! state file whose job records use the compact `{"k":v}` layout, an
//! experiment checkpoint, and the committed `BENCH_sweep.json`.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_bench::checkpoint::Checkpoint;
use dcfb_bench::sweep::BenchSweepReport;
use dcfb_sdk::{JobSpec, JobState};
use dcfb_serve::ServerState;
use std::path::Path;

/// A state file as the compact-record writer produced it: one done, one
/// failed and one running job.
const COMPACT_STATE: &str = r#"{
  "schema": "dcfb-serve-state-v1",
  "job:21524d5f28800f2a": "{\"workload\":\"Web Search\",\"method\":\"Baseline\",\"warmup\":100,\"measure\":400,\"seed\":2,\"state\":\"failed\",\"error\":\"boom \\\"quoted\\\"\"}",
  "job:818e2e67aa36f5cb": "{\"workload\":\"Web Search\",\"method\":\"Baseline\",\"warmup\":100,\"measure\":400,\"seed\":3,\"state\":\"running\"}",
  "job:d79770398acbc39e": "{\"workload\":\"Web Search\",\"method\":\"Baseline\",\"warmup\":100,\"measure\":400,\"seed\":1,\"state\":\"done\",\"digest\":\"dg\",\"result\":\"{\\\"method\\\":\\\"Baseline\\\",\\\"cycles\\\":9,\\\"ipc\\\":0.500000}\"}"
}"#;

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
fn compact_serve_state_records_recover() {
    let dir = std::env::temp_dir().join(format!("dcfb-legacy-state-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.json");
    std::fs::write(&path, COMPACT_STATE).unwrap();
    let (mut state, warn) = ServerState::recover(&path, 1 << 20).unwrap();
    assert!(warn.is_none(), "{warn:?}");
    assert_eq!(state.jobs.len(), 3);

    let done = spec(1).digest();
    assert_eq!(done, "d79770398acbc39e");
    assert_eq!(state.jobs[&done].state, JobState::Done);
    assert_eq!(
        state.cache.get(&done).unwrap(),
        (
            r#"{"method":"Baseline","cycles":9,"ipc":0.500000}"#.to_owned(),
            "dg".to_owned()
        )
    );
    let failed = spec(2).digest();
    assert_eq!(state.jobs[&failed].state, JobState::Failed);
    assert_eq!(
        state.jobs[&failed].error.as_deref(),
        Some("boom \"quoted\"")
    );
    let running = spec(3).digest();
    assert_eq!(state.jobs[&running].state, JobState::Queued);
    assert_eq!(state.queue.iter().collect::<Vec<_>>(), vec![&running]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_in_the_written_layout_loads() {
    let text = "{\n  \"fig01\": \"| a | b |\\n|---|---|\\n\",\n  \"tab1\": \"quotes \\\" and \\\\ \\u0001 §VII ✓\"\n}";
    let cp = Checkpoint::from_json(text).unwrap();
    assert_eq!(cp.len(), 2);
    assert_eq!(cp.get("fig01"), Some("| a | b |\n|---|---|\n"));
    assert_eq!(cp.get("tab1"), Some("quotes \" and \\ \u{1} §VII ✓"));
    assert_eq!(cp.to_json(), text, "re-saving is byte-identical");
}

#[test]
fn committed_bench_sweep_report_loads_and_validates() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let report = BenchSweepReport::from_json(&text).unwrap();
    report.validate().unwrap();
    assert_eq!(report.to_json(), text, "re-rendering is byte-identical");
}
