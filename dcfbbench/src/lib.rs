//! # dcfbbench
//!
//! The dcfb benchmark: three workloads that stress different layers,
//! end-to-end metrics measured with tracing off, and a separate traced
//! run that times calls into each crate from outside and splits the
//! wall clock among layers by span self time.
//!
//! `cargo run --release --manifest-path dcfbbench/Cargo.toml -- \
//!   --workload sn4l-oltp --seed 1 --seconds 30 --trace 0`
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `METRICS.md` records why each
//! workload and metric exists and what each per-layer metric should
//! move.

pub mod gate;
pub mod layers;
pub mod load;
pub mod spans;
pub mod stats;

use gate::{Digests, Tally};
use load::{Ctx, Samples, Scale, WorkloadName};
use spans::Tracer;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// End-to-end metrics: name and unit. Every workload reports all of
/// them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("profile_mips", "Minstr/s"),
    ("sharded_mips", "Minstr/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose span self time the traced run reports, with the
/// per-layer metric each is reported as.
pub const SELF_TIME: [(&str, &str); 5] = [
    ("harness", "harness.self_ms"),
    ("bench", "bench.self_ms"),
    ("sim", "sim.self_ms"),
    ("workloads", "workloads.self_ms"),
    ("sdk", "sdk.self_ms"),
];

/// Per-layer metrics: name and unit. Every traced run reports all of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("workloads.image_build_ms", "ms"),
    ("workloads.resolve_ms.synthetic", "ms"),
    ("workloads.resolve_ms.mix", "ms"),
    ("workloads.resolve_ms.trace", "ms"),
    ("workloads.walker_ns_per_instr", "ns/instr"),
    ("trace.write_v2_ns_per_instr", "ns/instr"),
    ("trace.read_v2_ns_per_instr", "ns/instr"),
    ("sim.replay_ns_per_instr.baseline", "ns/instr"),
    ("sim.method_ns_per_instr.sn4l_dis_btb", "ns/instr"),
    ("sim.method_ns_per_instr.boomerang", "ns/instr"),
    ("sim.method_ns_per_instr.shotgun", "ns/instr"),
    ("telemetry.overhead_frac", "ratio"),
    ("prefetch.seqtable_lookup_ns", "ns"),
    ("prefetch.distable_lookup_ns", "ns"),
    ("prefetch.rlu_check_insert_ns", "ns"),
    ("prefetch.btb_buffer_fill_take_ns", "ns"),
    ("frontend.predecode_ns", "ns"),
    ("frontend.btb_lookup_ns", "ns"),
    ("frontend.tage_predict_ns", "ns"),
    ("cache.l1i_access_ns", "ns"),
    ("frontend.shotgun_btb_lookup_ns", "ns"),
    ("bench.pool_speedup", "ratio"),
    ("bench.pool_imbalance", "ratio"),
    ("sim.shard_record_ms", "ms"),
    ("sim.shard_merge_ms", "ms"),
    ("sim.shard_imbalance", "ratio"),
    ("sdk.request_ms.submit", "ms"),
    ("sdk.request_ms.progress", "ms"),
    ("sdk.request_ms.result", "ms"),
    ("serve.requests_per_job", "count"),
    ("serve.cache_hit_frac", "ratio"),
    ("sim.l1i_mpki", "1/kinstr"),
    ("sim.btb_mpki", "1/kinstr"),
    ("sim.cache_lookups_pki", "1/kinstr"),
    ("sim.uncore_requests_pki", "1/kinstr"),
    ("sim.prefetch_issued_pki", "1/kinstr"),
    ("sim.prefetch_accurate_frac", "ratio"),
    ("harness.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("workloads.self_ms", "ms"),
    ("sdk.self_ms", "ms"),
    ("tracing.overhead_frac", "ratio"),
    ("tracing.span_count", "count"),
    ("tracing.partition_error_frac", "ratio"),
];

/// What one invocation runs.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: WorkloadName,
    /// Seed every input derives from.
    pub seed: u64,
    /// Seconds the load loop measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Where the run writes its files (trace file, spans).
    pub out_dir: PathBuf,
    /// Run sizes.
    pub scale: Scale,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// The reported metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (simulations, served jobs, golden checks).
    pub attempted: u64,
    /// Operations that failed or produced a wrong result.
    pub failed: u64,
    /// Failure messages and notes for standard error.
    pub notes: Vec<String>,
    /// Sample counts and percentiles behind the latency metrics.
    pub summary: String,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                m,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// `nproc` and the CPU model, reported with every result.
pub fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("nproc={} cpu=\"{cpu}\"", nproc())
}

/// Load threads and pool size: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn rate(n: u64, secs: f64) -> Option<f64> {
    (n > 0 && secs > 0.0).then(|| n as f64 / secs)
}

/// End-to-end values from a loop's samples, by catalogue name.
fn end_to_end(
    s: &Samples,
    setup_s: f64,
    rss: Option<f64>,
    summary: &mut String,
) -> Vec<(&'static str, Option<f64>)> {
    let tail = |v: &[f64], what: &str, summary: &mut String| {
        let t = stats::tail_percentile(v, 90);
        let _ = write!(
            summary,
            " {what}: n={} p{}",
            v.len(),
            t.map_or("-".to_owned(), |(p, _)| p.to_string())
        );
        t.map(|(_, v)| v)
    };
    let job_tail = tail(&s.job_ms, "jobs", summary);
    let hit_tail = tail(&s.hit_ms, "hits", summary);
    let _ = write!(
        summary,
        " throughput runs/specs: sim={}/{} profile={}/{} sharded={}/{}",
        s.sim.runs,
        s.sim.specs(),
        s.prof.runs,
        s.prof.specs(),
        s.shard.runs,
        s.shard.specs()
    );
    vec![
        ("setup_s", (setup_s > 0.0).then_some(setup_s)),
        ("sim_mips", s.sim.summary()),
        ("profile_mips", s.prof.summary()),
        ("sharded_mips", s.shard.summary()),
        ("jobs_per_s", rate(s.completed, s.loop_secs)),
        ("job_p50_ms", stats::median(&s.job_ms)),
        ("job_p90_ms", job_tail),
        ("hit_p50_ms", stats::median(&s.hit_ms)),
        ("hit_p90_ms", hit_tail),
        ("peak_rss_mb", rss),
    ]
}

fn catalogue(
    names: &[(&'static str, &'static str)],
    values: &[(&'static str, Option<f64>)],
    tally: &Tally,
    zero_ok: bool,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    names
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, v)| *v);
            let value = match v {
                Some(x) if x.is_finite() && (zero_ok || x != 0.0) => x,
                None if zero_ok => {
                    notes.push(format!("{name}: layer not exercised on this workload"));
                    0.0
                }
                _ => {
                    tally.record(Some(format!("{name}: no measurement")));
                    0.0
                }
            };
            Metric { name, value, unit }
        })
        .collect()
}

fn write_file(path: &Path, text: &str, tally: &Tally) {
    tally.check(std::fs::write(path, text).is_ok(), || {
        format!("cannot write {}", path.display())
    });
}

/// Runs one invocation: the untimed golden gate, set-up, then either
/// the untraced load (end-to-end metrics) or the traced run (per-layer
/// metrics).
///
/// # Errors
///
/// A set-up failure (nothing could be measured).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let tally = Tally::new();
    let digests = Digests::new();
    let tracer = Tracer::new();
    let ctx = Ctx {
        seed: opts.seed,
        nproc: nproc(),
        scale: &opts.scale,
        tracer: &tracer,
        tally: &tally,
        digests: &digests,
        out_dir: &opts.out_dir,
    };
    gate::check_goldens(&tally);
    let (prepared, setup_s) = load::prepare(&ctx, opts.workload)?;
    let mut notes = Vec::new();
    let mut summary = String::new();
    let metrics = if opts.trace {
        // Untraced then traced halves of the same length; their rates
        // give the tracing overhead.
        let half = opts.seconds / 2.0;
        let plain = load::run_loop(&ctx, &prepared, half, 0, 0);
        tracer.set_enabled(true);
        let (traced, root) = tracer.span("harness.run", 0, 0, |root| {
            (load::run_loop(&ctx, &prepared, half, root, 1), root)
        });
        tracer.set_enabled(false);
        let spans = tracer.take();
        let (parts, wall) = spans::self_time_by_layer(&spans, root);
        let overhead = match (
            rate(plain.completed, plain.loop_secs),
            rate(traced.completed, traced.loop_secs),
        ) {
            (Some(p), Some(t)) => p / t - 1.0,
            _ => 0.0,
        };
        let parts_sum: f64 = parts.values().sum();
        let partition_error = if wall > 0.0 {
            (parts_sum - wall).abs() / wall
        } else {
            1.0
        };
        tally.check(partition_error <= overhead.abs().max(1e-6), || {
            format!("layer self times sum to {parts_sum} ns of {wall} ns wall")
        });
        let mut values: Vec<(&'static str, Option<f64>)> =
            layers::probe(&ctx, opts.workload, &prepared, &traced, &spans)?
                .into_iter()
                .map(|(k, v)| (k, Some(v)))
                .collect();
        for (layer, name) in SELF_TIME {
            values.push((name, parts.get(layer).map(|ns| ns / 1e6)));
        }
        values.push(("tracing.overhead_frac", Some(overhead)));
        values.push(("tracing.span_count", Some(spans.len() as f64)));
        values.push(("tracing.partition_error_frac", Some(partition_error)));
        let stem = format!("{}-{}", opts.workload.name(), opts.seed);
        write_file(
            &opts.out_dir.join(format!("{stem}.spans.jsonl")),
            &spans::to_json_lines(&spans),
            &tally,
        );
        write_file(
            &opts.out_dir.join(format!("{stem}.trace.json")),
            &spans::to_chrome_trace(&spans),
            &tally,
        );
        let _ = write!(
            summary,
            " traced wall {:.3} s, {} spans, self time:",
            wall / 1e9,
            spans.len()
        );
        for (layer, ns) in &parts {
            let _ = write!(summary, " {layer}={:.1}%", 100.0 * ns / wall.max(1.0));
        }
        load::finish(prepared);
        catalogue(&PER_LAYER, &values, &tally, true, &mut notes)
    } else {
        let s = load::run_loop(&ctx, &prepared, opts.seconds, 0, 0);
        let rss = peak_rss_mb();
        load::finish(prepared);
        let values = end_to_end(&s, setup_s, rss, &mut summary);
        catalogue(&END_TO_END, &values, &tally, false, &mut notes)
    };
    let mut all_notes = tally.messages();
    all_notes.extend(notes);
    Ok(Outcome {
        metrics,
        attempted: tally.attempted(),
        failed: tally.failed(),
        notes: all_notes,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for (name, unit) in &all {
            assert!(stats::valid_name(name), "{name}");
            assert!(stats::valid_unit(unit), "{unit}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for w in WorkloadName::ALL {
            assert!(stats::valid_name(w.name()));
        }
        for (layer, name) in SELF_TIME {
            assert_eq!(name, format!("{layer}.self_ms"));
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WorkloadName::ALL {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let o = Outcome {
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.5,
                unit: "s",
            }],
            attempted: 3,
            failed: 0,
            notes: Vec::new(),
            summary: String::new(),
        };
        assert_eq!(
            o.json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
