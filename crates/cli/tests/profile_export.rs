//! End-to-end contract for `dcfb profile`: the exported metrics
//! document must carry the versioned schema, round-trip through the
//! parser, and classify every issued prefetch into exactly one of the
//! four timeliness classes; the CSV series must be rectangular; and
//! the Chrome trace must be valid JSON with monotonically
//! non-decreasing timestamps.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_errors::json::JsonValue;
use dcfb_telemetry::{MetricsDoc, METRICS_SCHEMA, SERIES_COLUMNS};
use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOAD: &str = "Web (Apache)";

fn dcfb(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcfb"))
        .args(args)
        .output()
        .expect("spawn dcfb")
}

fn temp_prefix(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dcfb_profile_{tag}_{}", std::process::id()));
    p
}

fn run_profile(tag: &str, method: &str) -> (String, String, String, String) {
    let prefix = temp_prefix(tag);
    let out = dcfb(&[
        "profile",
        "--workload",
        WORKLOAD,
        "--method",
        method,
        "--warmup",
        "20000",
        "--measure",
        "60000",
        "--out",
        prefix.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let read = |suffix: &str| {
        let path = format!("{}{suffix}", prefix.display());
        let text = std::fs::read_to_string(&path).expect("profile output file");
        let _ = std::fs::remove_file(&path);
        text
    };
    (
        read(".metrics.json"),
        read(".series.csv"),
        read(".trace.json"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn profile_exports_schema_valid_metrics() {
    let (metrics, series, trace, stdout) = run_profile("full", "SN4L+Dis+BTB");

    // Metrics document: schema-versioned, valid, and a lossless
    // round-trip through the parser.
    let doc = MetricsDoc::from_json(&metrics).expect("parse metrics doc");
    assert_eq!(doc.schema, METRICS_SCHEMA);
    doc.validate().expect("doc validates");
    let again = MetricsDoc::from_json(&doc.to_json()).expect("re-parse");
    assert_eq!(doc, again, "metrics doc must round-trip exactly");

    // Per-prefetcher timeliness: the four classes partition the issues.
    assert!(!doc.timeliness.is_empty(), "full system issues prefetches");
    for t in &doc.timeliness {
        assert_eq!(
            t.accurate + t.late + t.early_evicted + t.useless,
            t.issued,
            "{}: classes must sum to issued",
            t.source
        );
    }
    assert!(
        doc.timeliness.iter().any(|t| t.source == "sn4l"),
        "expected an sn4l row: {:?}",
        doc.timeliness
    );
    // The stdout table mirrors the document.
    assert!(stdout.contains("sn4l"), "stdout: {stdout}");

    // CSV series: header plus one rectangular row per window.
    let mut lines = series.lines();
    let header = lines.next().expect("csv header");
    assert_eq!(header, SERIES_COLUMNS.join(","));
    let mut rows = 0;
    for line in lines {
        assert_eq!(
            line.split(',').count(),
            SERIES_COLUMNS.len(),
            "ragged csv row: {line}"
        );
        rows += 1;
    }
    assert_eq!(rows, doc.series.len());
    assert!(rows > 0, "measured run must produce windows");

    // Chrome trace: valid JSON, events sorted by timestamp.
    let parsed = JsonValue::parse(&trace).expect("trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "run with stalls must emit events");
    let mut prev = 0u64;
    for e in events {
        let ts = e.get("ts").and_then(JsonValue::as_u64).expect("ts field");
        assert!(ts >= prev, "timestamps must be non-decreasing");
        prev = ts;
    }
}

#[test]
fn profile_covers_directed_frontends() {
    let (metrics, _series, _trace, _stdout) = run_profile("directed", "Boomerang");
    let doc = MetricsDoc::from_json(&metrics).expect("parse metrics doc");
    doc.validate().expect("doc validates");
    let row = doc
        .timeliness
        .iter()
        .find(|t| t.source == "boomerang")
        .expect("boomerang attribution");
    assert_eq!(
        row.accurate + row.late + row.early_evicted + row.useless,
        row.issued
    );
    // The directed frontend samples FTQ occupancy.
    let ftq = doc
        .histograms
        .iter()
        .find(|h| h.name == "ftq_occupancy")
        .expect("ftq histogram");
    assert!(ftq.count > 0);
}

#[test]
fn profile_requires_a_workload() {
    let out = dcfb(&["profile"]);
    assert_eq!(out.status.code(), Some(2), "usage error expected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
}
