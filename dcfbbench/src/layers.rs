//! Per-layer probes: timed calls into each crate's public functions,
//! driven by the workload's own sources, recorded stream and image.
//!
//! A probe runs only on the workloads whose load exercises its layer
//! (see `METRICS.md`); elsewhere the metric reads 0 and the run says so
//! on standard error.

use crate::gate::Tally;
use crate::load::{self, method_cfg, timed, Ctx, Prepared, Samples, WorkloadName, ISA};
use crate::spans::{self, Span};
use crate::stats::{median, mix_seed};
use dcfb_bench::sweep::parallel_map_jobs;
use dcfb_cache::{CacheConfig, LineFlags, SetAssocCache};
use dcfb_frontend::{
    BranchClass, Btb, BtbConfig, BtbEntry, Predecoder, ShotgunBtb, ShotgunBtbConfig, Tage,
};
use dcfb_prefetch::{BtbPrefetchBuffer, DisTable, Rlu, SeqTable};
use dcfb_sim::{
    merge_reports, plan_shards, record_stream, run_sharded_resolved, shard_stream, ShardOptions,
    SimConfig, SimReport, Simulator, SliceStream,
};
use dcfb_trace::{block_of, Block, Instr, InstrKind, ReadMode};
use dcfb_workloads::ResolvedWorkload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

/// Per-layer values by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Median of `reps` timings of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).1).collect();
    median(&samples).unwrap_or(0.0)
}

/// The source and names each workload's probes use.
struct Subject {
    /// Source whose recorded stream drives the replay and micro probes.
    source: Arc<ResolvedWorkload>,
    /// The workload's largest synthetic (image build, synthetic resolve).
    synthetic: &'static str,
    /// The method whose simulated counts are reported.
    counted: &'static str,
}

fn subject(w: WorkloadName) -> Result<Subject, String> {
    let (name, synthetic, counted) = match w {
        WorkloadName::Sn4lOltp => (load::OLTP, load::OLTP, load::SN4L),
        WorkloadName::DirectedSweep => ("Media Streaming", "Media Streaming", "Shotgun"),
        WorkloadName::ServeMix => (load::SERVE_MIX, load::SERVE_SYNTHETIC, load::SN4L),
    };
    let source = dcfb_bench::runs::resolved_for(name, ISA).map_err(|e| format!("{name}: {e}"))?;
    Ok(Subject {
        source: Arc::new(source),
        synthetic,
        counted,
    })
}

/// Replays `trace` through `cfg` on `source`'s code, returning the
/// report and host seconds (simulator construction included).
fn replay(
    source: &ResolvedWorkload,
    cfg: &SimConfig,
    trace: &[Instr],
) -> Result<(SimReport, f64), String> {
    let (report, secs) = timed(|| {
        let mut sim = Simulator::try_with_code(
            cfg.clone(),
            source.code(),
            source.start_pc(),
            source.name().to_owned(),
        )
        .map_err(|e| e.to_string())?;
        Ok::<_, String>(sim.run(&mut SliceStream::new(trace)))
    });
    Ok((report?, secs))
}

/// Median host ns per instruction of `reps` replays, plus the report
/// (identical across replays; checked).
fn replay_ns(
    tally: &Tally,
    source: &ResolvedWorkload,
    method: &str,
    trace: &[Instr],
    reps: usize,
    telemetry: bool,
) -> Option<(SimReport, f64)> {
    let warmup = trace.len() as u64 / 5;
    let mut cfg = method_cfg(method, warmup, trace.len() as u64 - warmup);
    cfg.telemetry = telemetry;
    let mut secs = Vec::new();
    let mut first: Option<SimReport> = None;
    for _ in 0..reps.max(1) {
        match replay(source, &cfg, trace) {
            Ok((report, s)) => {
                secs.push(s);
                let same = first.as_ref().is_none_or(|f| f.digest() == report.digest());
                tally.check(same, || format!("{method} replay is not deterministic"));
                first.get_or_insert(report);
            }
            Err(e) => tally.record(Some(format!("{method} replay: {e}"))),
        }
    }
    Some((first?, median(&secs)? * 1e9 / trace.len() as f64))
}

/// The demand block sequence of a recorded stream (consecutive repeats
/// collapsed), with the last instruction seen in each block.
fn block_stream(trace: &[Instr]) -> Vec<(Block, Instr)> {
    let mut out: Vec<(Block, Instr)> = Vec::new();
    for i in trace {
        let b = block_of(i.pc);
        match out.last_mut() {
            Some((last, instr)) if *last == b => *instr = *i,
            _ => out.push((b, *i)),
        }
    }
    out
}

fn class_of(kind: InstrKind) -> Option<BranchClass> {
    Some(match kind {
        InstrKind::Other => return None,
        InstrKind::CondBranch { .. } => BranchClass::Conditional,
        InstrKind::Jump => BranchClass::Jump,
        InstrKind::Call => BranchClass::Call,
        InstrKind::IndirectJump => BranchClass::IndirectJump,
        InstrKind::IndirectCall => BranchClass::IndirectCall,
        InstrKind::Return => BranchClass::Return,
    })
}

/// `n` calls of `op` over `items` (cycled), in ns per call; median of
/// `reps`.
fn ns_per_call<T>(items: &[T], n: usize, reps: usize, mut op: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let secs = median_secs(reps, || {
        for k in 0..n {
            op(&items[k % items.len()]);
        }
    });
    secs * 1e9 / n.max(1) as f64
}

/// Micro probes of the metadata tables, pre-decoder, BTBs, predictor
/// and L1i, driven by the recorded block stream and the source's code.
fn micro_probes(
    w: WorkloadName,
    ctx: &Ctx<'_>,
    source: &ResolvedWorkload,
    trace: &[Instr],
    out: &mut LayerValues,
) {
    let (n, reps) = (ctx.scale.micro_ops, ctx.scale.probe_reps);
    let blocks = block_stream(trace);
    let block_ids: Vec<Block> = blocks.iter().map(|(b, _)| *b).collect();
    let branches: Vec<(Instr, BranchClass)> = trace
        .iter()
        .filter_map(|i| class_of(i.kind).map(|c| (*i, c)))
        .collect();
    let entry = |(i, class): &(Instr, BranchClass)| BtbEntry {
        pc: i.pc,
        target: i.target,
        class: *class,
    };

    if w == WorkloadName::Sn4lOltp {
        let mut seq = SeqTable::paper_sized();
        let mut dis = DisTable::paper_sized();
        for pair in blocks.windows(2) {
            let ((b, last), (next, _)) = (pair[0], pair[1]);
            if next == b + 1 {
                seq.set(b);
            } else {
                seq.reset(b);
                dis.record(b, ((last.pc >> 2) & 0xF) as u8);
            }
        }
        out.insert(
            "prefetch.seqtable_lookup_ns",
            ns_per_call(&block_ids, n, reps, |b| {
                black_box(seq.is_useful(black_box(*b)));
            }),
        );
        out.insert(
            "prefetch.distable_lookup_ns",
            ns_per_call(&block_ids, n, reps, |b| {
                black_box(dis.lookup(black_box(*b)));
            }),
        );
        let mut rlu = Rlu::new(8);
        out.insert(
            "prefetch.rlu_check_insert_ns",
            ns_per_call(&block_ids, n, reps, |b| {
                black_box(rlu.check_insert(black_box(*b)));
            }),
        );
        let code = source.code();
        let mut predecoder = Predecoder::new(ISA);
        out.insert(
            "frontend.predecode_ns",
            ns_per_call(&block_ids, n, reps, |b| {
                black_box(predecoder.decode(&code, black_box(*b), None));
            }),
        );
        // Each block's pre-decoded branches, built outside the timing.
        let mut per_block: Vec<(Block, Arc<[BtbEntry]>)> = Vec::new();
        for &b in block_ids.iter().take(4096) {
            let decoded = predecoder.decode(&code, b, None);
            per_block.push((b, decoded.branches.into()));
        }
        let mut buffer = BtbPrefetchBuffer::paper_sized();
        out.insert(
            "prefetch.btb_buffer_fill_take_ns",
            ns_per_call(&per_block, n, reps, |(b, entries)| {
                buffer.fill(*b, Arc::clone(entries));
                black_box(buffer.take_for(entries.first().map_or(*b << 6, |e| e.pc)));
            }),
        );
    }

    if matches!(w, WorkloadName::Sn4lOltp | WorkloadName::DirectedSweep) {
        let mut btb = Btb::new(BtbConfig::baseline_2k());
        for b in &branches {
            btb.insert(entry(b));
        }
        out.insert(
            "frontend.btb_lookup_ns",
            ns_per_call(&branches, n, reps, |(i, _)| {
                black_box(btb.lookup(black_box(i.pc)));
            }),
        );
        let cond: Vec<(u64, bool)> = trace
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::CondBranch { taken } => Some((i.pc, taken)),
                _ => None,
            })
            .collect();
        let mut tage = Tage::default_sized();
        for &(pc, taken) in cond.iter().take(n) {
            tage.update(pc, taken);
        }
        out.insert(
            "frontend.tage_predict_ns",
            ns_per_call(&cond, n, reps, |(pc, _)| {
                black_box(tage.predict(black_box(*pc)));
            }),
        );
        let mut l1i = SetAssocCache::new(CacheConfig::l1i());
        out.insert(
            "cache.l1i_access_ns",
            ns_per_call(&block_ids, n, reps, |b| {
                if !l1i.demand_access(black_box(*b)) {
                    l1i.fill(*b, LineFlags::demand_instruction());
                }
            }),
        );
    }

    if w == WorkloadName::DirectedSweep {
        let mut shotgun = ShotgunBtb::new(ShotgunBtbConfig::default());
        for (i, class) in &branches {
            let end = i.pc + u64::from(i.size);
            match class {
                BranchClass::Conditional => shotgun.insert_c(i.pc, end, i.target),
                BranchClass::Return => shotgun.insert_r(i.pc, end),
                c => shotgun.insert_u(i.pc, end, i.target, *c),
            }
        }
        out.insert(
            "frontend.shotgun_btb_lookup_ns",
            ns_per_call(&branches, n, reps, |(i, class)| match class {
                BranchClass::Conditional => {
                    black_box(shotgun.lookup_c(black_box(i.pc)));
                }
                BranchClass::Return => {
                    black_box(shotgun.lookup_r(black_box(i.pc)));
                }
                _ => {
                    black_box(shotgun.lookup_u(black_box(i.pc)));
                }
            }),
        );
    }
}

/// Simulated work per kilo-instruction of `report`.
fn sim_counts(report: &SimReport, out: &mut LayerValues) {
    let ki = report.instrs.max(1) as f64 / 1000.0;
    let btb_misses = report.btb.misses
        + report.shotgun_btb.map_or(0, |s| {
            (s.u_lookups - s.u_hits) + (s.c_lookups - s.c_hits) + (s.r_lookups - s.r_hits)
        });
    let issued = report.uncore.prefetch_requests;
    out.insert("sim.l1i_mpki", report.l1i_mpki());
    out.insert("sim.btb_mpki", btb_misses as f64 / ki);
    out.insert("sim.cache_lookups_pki", report.cache_lookups as f64 / ki);
    out.insert(
        "sim.uncore_requests_pki",
        report.uncore.requests as f64 / ki,
    );
    out.insert("sim.prefetch_issued_pki", issued as f64 / ki);
    out.insert(
        "sim.prefetch_accurate_frac",
        if issued == 0 {
            0.0
        } else {
            (report.l1i.prefetch_hits as f64 / issued as f64).min(1.0)
        },
    );
}

/// Shard record/merge cost and balance on the workload's own spec, and
/// the gate that the sharded digest is the same at jobs=1 and
/// jobs=`nproc`.
fn shard_probes(
    ctx: &Ctx<'_>,
    source: &ResolvedWorkload,
    cfg: &SimConfig,
    seed: u64,
    out: &mut LayerValues,
) {
    let opts = ShardOptions::new(ctx.nproc);
    let plan = plan_shards(
        cfg.warmup_instrs,
        cfg.measure_instrs,
        opts.shards,
        opts.overlap_for(cfg.warmup_instrs),
    );
    let (trace, record_secs) =
        timed(|| record_stream(source.stream(seed).as_mut(), plan.trace_instrs()));
    let mut reports = Vec::new();
    let mut shard_secs = Vec::new();
    for spec in &plan.shards {
        let mut shard_cfg = cfg.clone();
        shard_cfg.warmup_instrs = spec.warmup;
        shard_cfg.measure_instrs = spec.measure;
        let (r, secs) = timed(|| {
            Simulator::try_with_code(
                shard_cfg,
                source.code(),
                source.start_pc(),
                source.name().to_owned(),
            )
            .map(|mut sim| sim.run(&mut shard_stream(&trace, spec)))
        });
        match r {
            Ok(report) => {
                reports.push(report);
                shard_secs.push(secs);
            }
            Err(e) => ctx.tally.record(Some(format!("shard {}: {e}", spec.index))),
        }
    }
    let (merged, merge_secs) = timed(|| merge_reports(&reports));
    let mean = shard_secs.iter().sum::<f64>() / shard_secs.len().max(1) as f64;
    let max = shard_secs.iter().copied().fold(0.0, f64::max);
    out.insert("sim.shard_record_ms", record_secs * 1e3);
    out.insert("sim.shard_merge_ms", merge_secs * 1e3);
    out.insert(
        "sim.shard_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );

    let sequential = ShardOptions { jobs: 1, ..opts };
    let digests: Vec<Option<String>> = [sequential, opts]
        .iter()
        .map(|o| match run_sharded_resolved(cfg, source, seed, o) {
            Ok(run) => Some(run.merged.digest()),
            Err(e) => {
                ctx.tally.record(Some(format!("sharded run: {e}")));
                None
            }
        })
        .collect();
    if let [Some(one), Some(many)] = digests.as_slice() {
        ctx.tally.check(one == many, || {
            "sharded digest differs between jobs=1 and jobs=nproc".to_owned()
        });
        let manual = merged.map(|m| m.digest());
        ctx.tally
            .check(manual.as_deref() == Some(one.as_str()), || {
                "shard-by-shard replay differs from run_sharded_resolved".to_owned()
            });
    }
}

/// Worker-pool speed-up and balance: one sweep pass at jobs=1 and one
/// at jobs=`nproc`.
fn pool_probes(ctx: &Ctx<'_>, sources: &[ResolvedWorkload], out: &mut LayerValues) {
    let sc = ctx.scale;
    let methods = load::SWEEP_METHODS.len();
    let cells: Vec<(usize, usize, u64)> = (0..methods * sources.len())
        .map(|i| (i % methods, i / methods, mix_seed(ctx.seed, 99, i as u64)))
        .collect();
    let run_pass = |jobs: usize| {
        timed(|| {
            parallel_map_jobs(cells.clone(), jobs, |&(m, s, seed)| {
                let cfg = method_cfg(load::SWEEP_METHODS[m], sc.cell_warmup, sc.cell_measure);
                let (r, secs) = timed(|| dcfb_sim::run_resolved(&sources[s], cfg, seed));
                (
                    r.map(|r| r.digest()).map_err(|e| e.to_string()),
                    spans::lane(),
                    secs,
                )
            })
        })
    };
    let (one, t1) = run_pass(1);
    let (many, tn) = run_pass(ctx.nproc);
    for ((a, _, _), (b, _, _)) in one.iter().zip(&many) {
        ctx.tally.check(a.is_ok() && a == b, || {
            "pool result differs between jobs=1 and jobs=nproc".to_owned()
        });
    }
    let mut busy: BTreeMap<u32, f64> = BTreeMap::new();
    for (_, lane, secs) in &many {
        *busy.entry(*lane).or_insert(0.0) += secs;
    }
    let mean = busy.values().sum::<f64>() / ctx.nproc.max(1) as f64;
    let max = busy.values().copied().fold(0.0, f64::max);
    out.insert("bench.pool_speedup", if tn > 0.0 { t1 / tn } else { 0.0 });
    out.insert(
        "bench.pool_imbalance",
        if mean > 0.0 { max / mean } else { 0.0 },
    );
}

/// Median duration, in ms, of the spans named `name`.
fn span_ms(spans: &[Span], name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    median(&d).unwrap_or(0.0)
}

/// Runs every probe the workload exercises. `traced` holds the samples
/// and spans of the traced loop.
pub fn probe(
    ctx: &Ctx<'_>,
    w: WorkloadName,
    prepared: &Prepared,
    traced: &Samples,
    spans: &[Span],
) -> Result<LayerValues, String> {
    let sc = ctx.scale;
    let reps = sc.probe_reps;
    let subject = subject(w)?;
    let source = &subject.source;
    let mut out = LayerValues::new();

    // workloads: image build, resolve per source kind, the walker.
    let workload =
        dcfb_workloads::workload(subject.synthetic).ok_or("synthetic workload is registered")?;
    out.insert(
        "workloads.image_build_ms",
        median_secs(reps, || {
            black_box(workload.image(ISA));
        }) * 1e3,
    );
    let resolve_ms = |name: &str| {
        median_secs(reps, || {
            black_box(dcfb_bench::runs::resolved_for(name, ISA).ok());
        }) * 1e3
    };
    out.insert(
        "workloads.resolve_ms.synthetic",
        resolve_ms(subject.synthetic),
    );
    if let Prepared::ServeMix { trace_spec, .. } = prepared {
        out.insert("workloads.resolve_ms.mix", resolve_ms(load::SERVE_MIX));
        out.insert("workloads.resolve_ms.trace", resolve_ms(trace_spec));
    }
    let seed = mix_seed(ctx.seed, 7, 0);
    let mut trace = Vec::new();
    let walk_secs = median_secs(reps, || {
        trace = record_stream(source.stream(seed).as_mut(), sc.probe_instrs);
    });
    ctx.tally.check(trace.len() as u64 == sc.probe_instrs, || {
        "recorded stream ended early".to_owned()
    });
    if w != WorkloadName::ServeMix {
        out.insert(
            "workloads.walker_ns_per_instr",
            walk_secs * 1e9 / trace.len().max(1) as f64,
        );
    }

    // trace: the v2 codec on the recorded stream.
    if w == WorkloadName::ServeMix {
        let mut bytes = Vec::new();
        let write = median_secs(reps, || {
            bytes.clear();
            let r = dcfb_trace::write_binary_v2(
                &mut SliceStream::new(&trace),
                &mut bytes,
                trace.len() as u64,
                Some(ISA),
                dcfb_trace::file::DEFAULT_CHUNK_RECORDS,
            );
            black_box(r.ok());
        });
        let mut read_ok = false;
        let read = median_secs(reps, || {
            let r = dcfb_trace::read_binary_checked(bytes.as_slice(), ReadMode::Strict);
            read_ok = r.is_ok_and(|(t, _)| t.instrs() == trace.as_slice());
        });
        ctx.tally
            .check(read_ok, || "v2 trace round trip differs".to_owned());
        out.insert(
            "trace.write_v2_ns_per_instr",
            write * 1e9 / trace.len().max(1) as f64,
        );
        out.insert(
            "trace.read_v2_ns_per_instr",
            read * 1e9 / trace.len().max(1) as f64,
        );
    }

    // sim: replay of the recorded stream, Baseline and the methods.
    let methods: &[(&str, &'static str)] = match w {
        WorkloadName::Sn4lOltp => &[(load::SN4L, "sim.method_ns_per_instr.sn4l_dis_btb")],
        WorkloadName::DirectedSweep => &[
            ("Boomerang", "sim.method_ns_per_instr.boomerang"),
            ("Shotgun", "sim.method_ns_per_instr.shotgun"),
        ],
        WorkloadName::ServeMix => &[],
    };
    let mut replayed: Vec<&str> = methods.iter().map(|(m, _)| *m).collect();
    if w != WorkloadName::ServeMix {
        replayed.push("Baseline");
    }
    if !replayed.contains(&subject.counted) {
        replayed.push(subject.counted);
    }
    let replays: Vec<(&str, Option<(SimReport, f64)>)> = replayed
        .into_iter()
        .map(|m| (m, replay_ns(ctx.tally, source, m, &trace, reps, false)))
        .collect();
    let replay_of = |method: &str| {
        replays
            .iter()
            .find(|(m, _)| *m == method)
            .and_then(|(_, r)| r.as_ref())
    };
    if let Some((_, base_ns)) = replay_of("Baseline") {
        out.insert("sim.replay_ns_per_instr.baseline", *base_ns);
        for (method, name) in methods {
            if let Some((_, ns)) = replay_of(method) {
                out.insert(name, ns - base_ns);
            }
        }
    }
    if let Some((report, plain_ns)) = replay_of(subject.counted) {
        sim_counts(report, &mut out);
        if w == WorkloadName::Sn4lOltp {
            if let Some((profiled, on_ns)) =
                replay_ns(ctx.tally, source, subject.counted, &trace, reps, true)
            {
                ctx.tally.check(profiled.digest() == report.digest(), || {
                    "telemetry changed the simulated result".to_owned()
                });
                out.insert("telemetry.overhead_frac", on_ns / plain_ns - 1.0);
            }
        }
    }

    micro_probes(w, ctx, source, &trace, &mut out);

    // Sharding on the workload's own spec; the pool on the sweep.
    let cfg = match w {
        WorkloadName::Sn4lOltp => method_cfg(load::SN4L, sc.run_warmup, sc.run_measure),
        WorkloadName::DirectedSweep => method_cfg("Shotgun", sc.cell_warmup, sc.cell_measure),
        WorkloadName::ServeMix => method_cfg(load::SN4L, sc.job_warmup, sc.job_measure),
    };
    shard_probes(ctx, source, &cfg, seed, &mut out);
    if let Prepared::DirectedSweep { sources } = prepared {
        pool_probes(ctx, sources, &mut out);
    }

    // sdk and serve: from the traced closed loop.
    if w == WorkloadName::ServeMix {
        for (name, span) in [
            ("sdk.request_ms.submit", "sdk.submit"),
            ("sdk.request_ms.progress", "sdk.progress"),
            ("sdk.request_ms.result", "sdk.result"),
        ] {
            out.insert(name, span_ms(spans, span));
        }
        let submissions = (traced.job_ms.len() + traced.hit_ms.len()).max(1) as f64;
        out.insert(
            "serve.requests_per_job",
            traced.requests as f64 / submissions,
        );
        out.insert(
            "serve.cache_hit_frac",
            traced.cache_hits as f64 / submissions,
        );
    }
    Ok(out)
}
