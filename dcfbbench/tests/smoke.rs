//! Tiny-scale smoke of every workload, untraced and traced: the golden
//! gate and every per-result check run, nothing fails, and every
//! catalogue metric is reported.

use dcfbbench::load::{Scale, WorkloadName};
use dcfbbench::{run, Options, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn smoke(workload: WorkloadName, trace: bool) {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options {
        workload,
        seed: 11,
        seconds: 0.2,
        trace,
        out_dir: out_dir.clone(),
        scale: Scale::tiny(),
    };
    let outcome = run(&opts).expect("set-up succeeds");
    assert_eq!(outcome.failed, 0, "{:?}", outcome.notes);
    // 15 goldens plus the workload's own checks.
    assert!(outcome.attempted > 15, "{}", outcome.attempted);
    let catalogue = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, expected);
    for m in &outcome.metrics {
        assert!(m.value.is_finite(), "{m:?}");
        if !trace {
            assert!(m.value > 0.0, "end-to-end metric {m:?} must be non-zero");
        }
    }
    let line = outcome.json();
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    if trace {
        let stem = format!("{}-11", workload.name());
        let spans = std::fs::read_to_string(out_dir.join(format!("{stem}.spans.jsonl"))).unwrap();
        assert!(spans.lines().count() > 1);
        assert!(spans.lines().all(|l| l.starts_with("{\"id\":")));
        let chrome = std::fs::read_to_string(out_dir.join(format!("{stem}.trace.json"))).unwrap();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(value("tracing.partition_error_frac") < 1e-6);
        assert!(value("sim.self_ms") > 0.0);
        if workload == WorkloadName::ServeMix {
            // Every spec is resubmitted once after its result returns.
            assert_eq!(value("serve.cache_hit_frac"), 0.5);
        }
    }
}

#[test]
fn sn4l_oltp_untraced() {
    smoke(WorkloadName::Sn4lOltp, false);
}

#[test]
fn sn4l_oltp_traced() {
    smoke(WorkloadName::Sn4lOltp, true);
}

#[test]
fn directed_sweep_untraced() {
    smoke(WorkloadName::DirectedSweep, false);
}

#[test]
fn directed_sweep_traced() {
    smoke(WorkloadName::DirectedSweep, true);
}

#[test]
fn serve_mix_untraced() {
    smoke(WorkloadName::ServeMix, false);
}

#[test]
fn serve_mix_traced() {
    smoke(WorkloadName::ServeMix, true);
}
