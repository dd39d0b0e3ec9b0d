//! The three workloads: set-up, the timed load loop, and the
//! correctness checks made on every result the loop produces.
//!
//! Every workload produces the same shape of samples, so all ten
//! end-to-end metrics exist on all three:
//!
//! * a *job* is the first run of a spec in a round and a *hit* is the
//!   second run of the same spec. The job server answers hits from its
//!   result cache; the direct paths have no result cache, so there a
//!   hit is a full re-simulation whose digest must equal the job's;
//! * *profiled* runs repeat a job's spec with telemetry on and must
//!   produce the same digest;
//! * *sharded* runs split a job's spec into `nproc` time slices.
//!
//! The single-run throughput metrics come from a fixed pool of specs
//! drawn from the seed that the loop runs again and again across the
//! window, and keep each spec's best run (see [`Throughput`]).
//! `serve-mix` serves fresh specs, so that its first submissions miss
//! the server's cache, and reruns its pool directly between closed-loop
//! stretches. `directed-sweep` times whole pool passes over fresh
//! cells, each pass a spec of its own.

use crate::gate::{Digests, Tally};
use crate::spans::Tracer;
use crate::stats::mix_seed;
use dcfb_bench::sweep::parallel_map_jobs;
use dcfb_sdk::{Client, JobSpec};
use dcfb_serve::{ServeOptions, Server};
use dcfb_sim::{
    run_resolved, run_resolved_profiled, run_sharded_resolved, ShardOptions, SimConfig,
};
use dcfb_trace::IsaMode;
use dcfb_workloads::{ResolvedWorkload, SourceSpec, Walker};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The instruction encoding every workload simulates.
pub const ISA: IsaMode = IsaMode::Fixed4;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadName {
    /// Repeated single-thread SN4L+Dis+BTB runs on the largest footprint.
    Sn4lOltp,
    /// Baseline/Boomerang/Shotgun over a small and a large footprint on
    /// the worker pool, plus sharded Shotgun runs.
    DirectedSweep,
    /// A closed loop of SDK clients against an in-process job server.
    ServeMix,
}

impl WorkloadName {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::Sn4lOltp,
        WorkloadName::DirectedSweep,
        WorkloadName::ServeMix,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::Sn4lOltp => "sn4l-oltp",
            WorkloadName::DirectedSweep => "directed-sweep",
            WorkloadName::ServeMix => "serve-mix",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Run sizes. [`Scale::full`] is what the command line uses; tests
/// use [`Scale::tiny`].
#[derive(Clone, Debug)]
pub struct Scale {
    /// Warm-up instructions of one `sn4l-oltp` run.
    pub run_warmup: u64,
    /// Measured instructions of one `sn4l-oltp` run.
    pub run_measure: u64,
    /// Warm-up instructions of one sweep cell.
    pub cell_warmup: u64,
    /// Measured instructions of one sweep cell.
    pub cell_measure: u64,
    /// Warm-up instructions of one served job.
    pub job_warmup: u64,
    /// Measured instructions of one served job.
    pub job_measure: u64,
    /// Records in the v2 trace file `serve-mix` replays.
    pub trace_file_instrs: u64,
    /// Length of the recorded stream the per-layer probes replay.
    pub probe_instrs: u64,
    /// Calls per per-layer micro probe.
    pub micro_ops: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Repeats of each per-layer probe; the median is reported.
    pub probe_reps: usize,
    /// Fewest load rounds, however short `--seconds` is.
    pub min_rounds: u64,
    /// Specs `sn4l-oltp` cycles through.
    pub run_pool: u64,
    /// Specs `serve-mix` reruns directly in every slot (a multiple of
    /// the nine source x method combinations).
    pub serve_pool: u64,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            run_warmup: 40_000,
            run_measure: 160_000,
            cell_warmup: 40_000,
            cell_measure: 160_000,
            job_warmup: 5_000,
            job_measure: 35_000,
            trace_file_instrs: 80_000,
            probe_instrs: 300_000,
            micro_ops: 200_000,
            setup_reps: 21,
            probe_reps: 3,
            min_rounds: 4,
            run_pool: 32,
            serve_pool: 54,
        }
    }

    /// Sizes small enough for a test to run every workload in seconds.
    pub fn tiny() -> Self {
        Scale {
            run_warmup: 2_000,
            run_measure: 6_000,
            cell_warmup: 2_000,
            cell_measure: 6_000,
            job_warmup: 500,
            job_measure: 1_500,
            trace_file_instrs: 4_000,
            probe_instrs: 20_000,
            micro_ops: 2_000,
            setup_reps: 1,
            probe_reps: 1,
            min_rounds: 20,
            run_pool: 4,
            serve_pool: 9,
        }
    }
}

/// What one run shares with the workload code.
pub struct Ctx<'a> {
    /// The benchmark seed every input derives from.
    pub seed: u64,
    /// Load threads and pool size: the host's available parallelism.
    pub nproc: usize,
    /// Run sizes.
    pub scale: &'a Scale,
    /// Span recorder (disabled outside the traced half).
    pub tracer: &'a Tracer,
    /// Operation and failure counts.
    pub tally: &'a Tally,
    /// First digest of every repeated spec.
    pub digests: &'a Digests,
    /// Directory for files the run writes (trace file, spans).
    pub out_dir: &'a Path,
}

/// Simulation throughput: the best rate of each spec over its repeats,
/// tagged with the class of work the spec runs.
///
/// On a shared host a neighbour can cut single-thread speed by a third
/// for stretches of a fraction of a second, and how often it does so
/// changes from minute to minute. A median over runs reports how busy
/// the neighbours were; a spec's best run, with its repeats spread over
/// the window, is the one the host disturbed least.
#[derive(Clone, Debug, Default)]
pub struct Throughput {
    /// Spec key -> `(class, best million simulated instructions per
    /// host second)`.
    best: BTreeMap<u64, (usize, f64)>,
    /// Timed runs behind `best`.
    pub runs: usize,
}

impl Throughput {
    /// Adds one run of the spec `key` (its trace seed, or the sweep's
    /// cell set), of class `class`: `instrs` simulated in `secs`.
    pub fn add(&mut self, class: usize, key: u64, instrs: u64, secs: f64) {
        if secs > 0.0 {
            let rate = instrs as f64 / secs / 1e6;
            let best = self.best.entry(key).or_insert((class, rate));
            best.1 = best.1.max(rate);
            self.runs += 1;
        }
    }

    fn absorb(&mut self, o: Throughput) {
        for (key, (class, rate)) in o.best {
            let best = self.best.entry(key).or_insert((class, rate));
            best.1 = best.1.max(rate);
        }
        self.runs += o.runs;
    }

    /// Distinct specs measured.
    pub fn specs(&self) -> usize {
        self.best.len()
    }

    /// The geometric mean over classes of the median best rate of each
    /// class's specs. A median shrugs off a spec that never met a quiet
    /// host, and a slow class counts once rather than by the time it
    /// takes.
    pub fn summary(&self) -> Option<f64> {
        let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (class, rate) in self.best.values() {
            by_class.entry(*class).or_default().push(*rate);
        }
        let mut log_sum = 0.0;
        for rates in by_class.values() {
            log_sum += crate::stats::median(rates)?.ln();
        }
        (!by_class.is_empty()).then(|| (log_sum / by_class.len() as f64).exp())
    }
}

/// Raw samples from one load loop.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// Telemetry-off runs.
    pub sim: Throughput,
    /// Telemetry-on runs.
    pub prof: Throughput,
    /// Sharded runs (logical warm-up plus measured instructions).
    pub shard: Throughput,
    /// Latency of first runs of a spec, ms.
    pub job_ms: Vec<f64>,
    /// Latency of repeat runs of a spec, ms.
    pub hit_ms: Vec<f64>,
    /// Runs or submissions completed in the loop.
    pub completed: u64,
    /// Wall seconds of the loop.
    pub loop_secs: f64,
    /// Server request count over the loop (`serve-mix` only).
    pub requests: u64,
    /// Server cache hits over the loop (`serve-mix` only).
    pub cache_hits: u64,
}

impl Samples {
    fn absorb(&mut self, o: Samples) {
        self.sim.absorb(o.sim);
        self.prof.absorb(o.prof);
        self.shard.absorb(o.shard);
        self.job_ms.extend(o.job_ms);
        self.hit_ms.extend(o.hit_ms);
        self.completed += o.completed;
    }
}

/// The workload's prepared inputs.
pub enum Prepared {
    /// `sn4l-oltp`: the OLTP source.
    Sn4lOltp {
        /// `OLTP (DB A)`, resolved once.
        oltp: ResolvedWorkload,
    },
    /// `directed-sweep`: the small and the large footprint.
    DirectedSweep {
        /// `Web Frontend` and `Media Streaming`.
        sources: Vec<ResolvedWorkload>,
    },
    /// `serve-mix`: a running server and the v2 trace it replays.
    ServeMix {
        /// The in-process job server.
        server: Server,
        /// `trace:` spec of the file written at set-up.
        trace_spec: String,
    },
}

/// Telemetry-off methods of the sweep, in cell order.
pub const SWEEP_METHODS: [&str; 3] = ["Baseline", "Boomerang", "Shotgun"];
/// The sweep's footprints: small (2.5k blocks), then large (33k).
pub const SWEEP_SOURCES: [&str; 2] = ["Web Frontend", "Media Streaming"];
/// The decoupled method `sn4l-oltp` runs.
pub const SN4L: &str = "SN4L+Dis+BTB";
/// The largest-footprint synthetic workload (38k blocks).
pub const OLTP: &str = "OLTP (DB A)";
/// Methods the served jobs use.
pub const SERVE_METHODS: [&str; 3] = ["Baseline", "SN4L+Dis+BTB", "Shotgun"];
/// The synthetic and mix sources the served jobs use; the third is the
/// `trace:` file written at set-up.
pub const SERVE_SYNTHETIC: &str = "Web Search";
/// Two tenants interleaved by the mix source.
pub const SERVE_MIX: &str = "mix:Web Frontend+Web Search";

/// `name`'s registry configuration with the given window.
pub fn method_cfg(name: &str, warmup: u64, measure: u64) -> SimConfig {
    let mut cfg = SimConfig::for_method(name).expect("benchmark methods are registry methods");
    cfg.warmup_instrs = warmup;
    cfg.measure_instrs = measure;
    cfg
}

/// Runs `f`, returning its value and elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn fresh(name: &str) -> Result<ResolvedWorkload, String> {
    SourceSpec::parse(name)
        .and_then(|s| s.resolve(ISA))
        .map_err(|e| format!("resolve {name}: {e}"))
}

/// Path of the v2 trace file `serve-mix` writes for `seed`.
pub fn trace_path(out_dir: &Path, seed: u64) -> PathBuf {
    out_dir.join(format!("serve-mix-{seed}.dcfbt"))
}

/// Writes the `serve-mix` trace: a `Web Frontend` walk from `seed`.
pub fn write_trace_file(path: &Path, seed: u64, instrs: u64) -> Result<(), String> {
    let image = fresh("Web Frontend")?
        .image()
        .cloned()
        .ok_or("Web Frontend is synthetic")?;
    let mut walker = Walker::new(image, seed);
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let n = dcfb_trace::write_binary_v2(
        &mut walker,
        file,
        instrs,
        Some(ISA),
        dcfb_trace::file::DEFAULT_CHUNK_RECORDS,
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    if n != instrs {
        return Err(format!("trace file holds {n} of {instrs} records"));
    }
    Ok(())
}

fn prepare_once(ctx: &Ctx<'_>, w: WorkloadName) -> Result<Prepared, String> {
    match w {
        WorkloadName::Sn4lOltp => Ok(Prepared::Sn4lOltp { oltp: fresh(OLTP)? }),
        WorkloadName::DirectedSweep => Ok(Prepared::DirectedSweep {
            sources: SWEEP_SOURCES
                .iter()
                .map(|s| fresh(s))
                .collect::<Result<_, _>>()?,
        }),
        WorkloadName::ServeMix => {
            // The images the served jobs need, the trace file, and the
            // server.
            fresh(SERVE_SYNTHETIC)?;
            fresh("Web Frontend")?;
            let path = trace_path(ctx.out_dir, ctx.seed);
            write_trace_file(&path, ctx.seed, ctx.scale.trace_file_instrs)?;
            let server = Server::spawn(ServeOptions {
                addr: "127.0.0.1:0".to_owned(),
                workers: ctx.nproc,
                ..ServeOptions::default()
            })
            .map_err(|e| format!("server spawn: {e}"))?;
            Ok(Prepared::ServeMix {
                server,
                trace_spec: format!("trace:{}", path.display()),
            })
        }
    }
}

fn stop_server(mut server: Server) {
    server.shutdown();
    server.wait();
}

/// Prepares the workload `scale.setup_reps` times and returns the last
/// preparation with the median set-up time, in seconds.
pub fn prepare(ctx: &Ctx<'_>, w: WorkloadName) -> Result<(Prepared, f64), String> {
    let reps = ctx.scale.setup_reps.max(1);
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(Prepared::ServeMix { server, .. }) = last.take() {
            stop_server(server);
        }
        let (prepared, s) = timed(|| prepare_once(ctx, w));
        ctx.tally.check(prepared.is_ok(), || {
            format!(
                "set-up failed: {}",
                prepared.as_ref().err().cloned().unwrap_or_default()
            )
        });
        last = Some(prepared?);
        secs.push(s);
    }
    let prepared = last.ok_or("no set-up ran")?;
    if let Prepared::ServeMix { server, .. } = &prepared {
        // Untimed: the first request waits out a random part of the
        // server's 10 ms accept poll, which would only add noise.
        Client::new(server.local_addr().to_string())
            .health()
            .map_err(|e| format!("server health: {e}"))?;
        // Prime the process-wide image cache the served jobs resolve
        // through; set-up above already timed building these images.
        for name in [SERVE_SYNTHETIC, "Web Frontend"] {
            dcfb_bench::runs::resolved_for(name, ISA).map_err(|e| format!("{name}: {e}"))?;
        }
    }
    let median = crate::stats::median(&secs).unwrap_or(0.0);
    Ok((prepared, median))
}

/// Releases what [`prepare`] started.
pub fn finish(prepared: Prepared) {
    if let Prepared::ServeMix { server, .. } = prepared {
        stop_server(server);
    }
}

/// Runs the workload's load loop until `seconds` have passed (and at
/// least `scale.min_rounds` rounds), under span `root`. `phase` salts
/// the job seeds so a second loop in one process submits new specs.
pub fn run_loop(
    ctx: &Ctx<'_>,
    prepared: &Prepared,
    seconds: f64,
    root: u64,
    phase: u64,
) -> Samples {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds.max(0.0));
    let mut s = match prepared {
        Prepared::Sn4lOltp { oltp } => sn4l_loop(ctx, oltp, deadline, root, phase),
        Prepared::DirectedSweep { sources } => sweep_loop(ctx, sources, deadline, root, phase),
        Prepared::ServeMix { server, trace_spec } => {
            // The closed loop times itself: its wall time excludes the
            // direct recompute.
            return serve_loop(ctx, server, trace_spec, seconds, root, phase);
        }
    };
    s.loop_secs = start.elapsed().as_secs_f64();
    s
}

fn digest_or_fail(
    tally: &Tally,
    what: &str,
    r: Result<dcfb_sim::SimReport, impl std::fmt::Display>,
) -> Option<String> {
    match r {
        Ok(report) => Some(report.digest()),
        Err(e) => {
            tally.record(Some(format!("{what}: {e}")));
            None
        }
    }
}

/// Repeats `cfg` on `source` with telemetry on; the digest must equal
/// `expect`. `(parent, job)` place its span; `class` tags its rate,
/// keyed by `seed`.
fn profiled_check(
    ctx: &Ctx<'_>,
    s: &mut Samples,
    source: &ResolvedWorkload,
    cfg: &SimConfig,
    seed: u64,
    expect: &str,
    (parent, job, class): (u64, u64, usize),
) {
    let (r, secs) = timed(|| {
        ctx.tracer
            .span("sim.run_resolved_profiled", parent, job, |_| {
                run_resolved_profiled(source, cfg.clone(), seed)
            })
    });
    match r {
        Ok((report, _telemetry)) => {
            s.prof
                .add(class, seed, cfg.warmup_instrs + cfg.measure_instrs, secs);
            ctx.tally.check(report.digest() == expect, || {
                format!(
                    "profiled digest differs from plain run ({}, seed {seed})",
                    source.name()
                )
            });
        }
        Err(e) => ctx.tally.record(Some(format!("profiled run: {e}"))),
    }
}

/// Runs `cfg` on `source` in `nproc` time shards on `jobs` threads; the
/// merged report must cover exactly the measured window, and repeats
/// must merge to the same digest. `(parent, job)` place its span;
/// `class` tags its rate, keyed by `seed`.
fn sharded_check(
    ctx: &Ctx<'_>,
    s: &mut Samples,
    source: &ResolvedWorkload,
    cfg: &SimConfig,
    seed: u64,
    (parent, job, class): (u64, u64, usize),
    jobs: usize,
) {
    let opts = ShardOptions {
        jobs,
        ..ShardOptions::new(ctx.nproc)
    };
    let (r, secs) = timed(|| {
        ctx.tracer
            .span("sim.run_sharded_resolved", parent, job, |_| {
                run_sharded_resolved(cfg, source, seed, &opts)
            })
    });
    match r {
        Ok(run) => {
            s.shard
                .add(class, seed, cfg.warmup_instrs + cfg.measure_instrs, secs);
            ctx.digests
                .check(ctx.tally, "sharded", seed, &run.merged.digest());
            ctx.tally
                .check(run.merged.instrs == cfg.measure_instrs, || {
                    format!(
                        "sharded run measured {} of {} instrs",
                        run.merged.instrs, cfg.measure_instrs
                    )
                });
        }
        Err(e) => ctx.tally.record(Some(format!("sharded run: {e}"))),
    }
}

/// Runs `f` on `nproc` load threads and merges their samples. Keeping
/// every core busy makes single-thread rates steadier than one thread
/// that the host scheduler moves between cores.
fn on_load_threads(ctx: &Ctx<'_>, f: impl Fn() -> Samples + Sync) -> Samples {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.nproc).map(|_| scope.spawn(f)).collect();
        let mut s = Samples::default();
        for h in handles {
            s.absorb(h.join().expect("load thread panicked"));
        }
        s
    })
}

fn sn4l_loop(
    ctx: &Ctx<'_>,
    oltp: &ResolvedWorkload,
    deadline: Instant,
    root: u64,
    phase: u64,
) -> Samples {
    // Sharded runs keep every core busy themselves, so they run alone in
    // the last quarter of each slot; many short slots spread each spec's
    // sharded repeats over the window as the plain ones are.
    const SLOTS: u32 = 12;
    let start = Instant::now();
    let window = deadline.saturating_duration_since(start);
    let cfg = method_cfg(SN4L, ctx.scale.run_warmup, ctx.scale.run_measure);
    let next_round = AtomicU64::new(0);
    let mut s = Samples::default();
    let mut k = 0;
    for slot in 1..=SLOTS {
        let slot_end = start + window.mul_f64(f64::from(slot) / f64::from(SLOTS));
        let shared_until = slot_end - window.mul_f64(0.25 / f64::from(SLOTS));
        s.absorb(on_load_threads(ctx, || {
            sn4l_thread(ctx, oltp, shared_until, root, phase, &next_round)
        }));
        loop {
            // Sharded runs cycle through the first half of the plain
            // runs' specs, as many as are profiled, so that each is
            // repeated as often; their spans are numbered apart.
            let seed = mix_seed(ctx.seed, phase, k % (ctx.scale.run_pool / 2));
            let job = u64::MAX - k;
            sharded_check(ctx, &mut s, oltp, &cfg, seed, (root, job, 0), ctx.nproc);
            s.completed += 1;
            k += 1;
            if Instant::now() >= slot_end {
                break;
            }
        }
    }
    s
}

/// One load thread of `sn4l-oltp`: takes rounds from `next_round`
/// until `until` (and at least `scale.min_rounds` rounds overall).
/// Round `r` runs spec `r % scale.run_pool` twice, and every second
/// spec once more with telemetry on.
fn sn4l_thread(
    ctx: &Ctx<'_>,
    oltp: &ResolvedWorkload,
    until: Instant,
    root: u64,
    phase: u64,
    next_round: &AtomicU64,
) -> Samples {
    let sc = ctx.scale;
    let cfg = method_cfg(SN4L, sc.run_warmup, sc.run_measure);
    let instrs = sc.run_warmup + sc.run_measure;
    let mut s = Samples::default();
    loop {
        let round = next_round.fetch_add(1, Ordering::Relaxed);
        if round >= sc.min_rounds && Instant::now() >= until {
            break;
        }
        let spec = round % sc.run_pool;
        let seed = mix_seed(ctx.seed, phase, spec);
        let job = round + 1;
        let run = || {
            timed(|| {
                ctx.tracer.span("sim.run_resolved", root, job, |_| {
                    run_resolved(oltp, cfg.clone(), seed)
                })
            })
        };
        let (first, secs) = run();
        s.completed += 1;
        let Some(digest) = digest_or_fail(ctx.tally, "sn4l-oltp run", first) else {
            continue;
        };
        ctx.digests.check(ctx.tally, "sn4l-oltp", seed, &digest);
        s.job_ms.push(secs * 1e3);
        s.sim.add(0, seed, instrs, secs);
        let (again, secs) = run();
        s.completed += 1;
        if let Some(d) = digest_or_fail(ctx.tally, "sn4l-oltp repeat", again) {
            ctx.digests.check(ctx.tally, "sn4l-oltp", seed, &d);
            s.hit_ms.push(secs * 1e3);
            s.sim.add(0, seed, instrs, secs);
        }
        if matches!(spec % 4, 1 | 2) {
            profiled_check(ctx, &mut s, oltp, &cfg, seed, &digest, (root, job, 0));
            s.completed += 1;
        }
    }
    s
}

/// One sweep cell: a method on a source with a seed.
#[derive(Clone, Copy, Debug)]
struct Cell {
    method: usize,
    source: usize,
    seed: u64,
    job: u64,
}

fn sweep_loop(
    ctx: &Ctx<'_>,
    sources: &[ResolvedWorkload],
    deadline: Instant,
    root: u64,
    phase: u64,
) -> Samples {
    let sc = ctx.scale;
    let cfgs: Vec<SimConfig> = SWEEP_METHODS
        .iter()
        .map(|m| method_cfg(m, sc.cell_warmup, sc.cell_measure))
        .collect();
    let instrs = sc.cell_warmup + sc.cell_measure;
    let mut s = Samples::default();
    let mut round = 0u64;
    while round < sc.min_rounds || Instant::now() < deadline {
        // The large footprint comes first, so that the pool ends the
        // pass on short cells and its threads finish together.
        let cells: Vec<Cell> = (0..SWEEP_METHODS.len() * sources.len())
            .map(|i| Cell {
                method: i % SWEEP_METHODS.len(),
                source: sources.len() - 1 - i / SWEEP_METHODS.len(),
                seed: mix_seed(ctx.seed, phase, round * 16 + i as u64),
                job: round * 16 + i as u64 + 1,
            })
            .collect();
        // Pass 0 runs the cells, pass 1 repeats them, pass 2 repeats
        // them with telemetry on; every repeat must match pass 0.
        for pass in 0..3u64 {
            let profiled = pass == 2;
            let name = if profiled {
                "sim.run_resolved_profiled"
            } else {
                "sim.run_resolved"
            };
            // A cell's latency runs from the pass's start to its result,
            // as a caller of the sweep waits for it.
            let pass_start = Instant::now();
            let results = ctx
                .tracer
                .span("bench.parallel_map_jobs", root, 0, |pass_span| {
                    parallel_map_jobs(cells.clone(), ctx.nproc, |c| {
                        let (source, cfg) = (&sources[c.source], cfgs[c.method].clone());
                        let r = ctx.tracer.span(name, pass_span, c.job, |_| {
                            if profiled {
                                run_resolved_profiled(source, cfg, c.seed).map(|(r, _)| r)
                            } else {
                                run_resolved(source, cfg, c.seed)
                            }
                        });
                        (r, pass_start.elapsed().as_secs_f64())
                    })
                });
            let secs = pass_start.elapsed().as_secs_f64();
            let pass_instrs = instrs * cells.len() as u64;
            // Each pass is a spec of its own: a sweep of fresh cells is
            // what a caller of the pool runs.
            if profiled {
                s.prof.add(0, round, pass_instrs, secs);
            } else {
                s.sim.add(0, round * 2 + pass, pass_instrs, secs);
            }
            for (i, (r, cell_secs)) in results.into_iter().enumerate() {
                s.completed += 1;
                let Some(d) = digest_or_fail(ctx.tally, name, r) else {
                    continue;
                };
                ctx.digests
                    .check(ctx.tally, "sweep cell", cells[i].seed, &d);
                match pass {
                    0 => s.job_ms.push(cell_secs * 1e3),
                    1 => s.hit_ms.push(cell_secs * 1e3),
                    _ => {}
                }
            }
        }
        // The large-footprint Shotgun cell, sharded.
        let cell = cells[SWEEP_METHODS.len() - 1];
        let (source, cfg) = (&sources[cell.source], &cfgs[cell.method]);
        sharded_check(
            ctx,
            &mut s,
            source,
            cfg,
            cell.seed,
            (root, cell.job, 0),
            ctx.nproc,
        );
        s.completed += 1;
        round += 1;
    }
    s
}

/// Submits `spec` and waits for its result through the SDK's
/// submit/progress/result requests. Returns whether the server answered
/// from its cache and the result digest.
fn serve_once(
    ctx: &Ctx<'_>,
    client: &Client,
    spec: &JobSpec,
    root: u64,
    job: u64,
) -> Result<(bool, String), String> {
    ctx.tracer.span("sdk.job", root, job, |parent| {
        let t = ctx.tracer;
        let reply = t
            .span("sdk.submit", parent, job, |_| client.submit(spec))
            .map_err(|e| format!("submit: {e}"))?;
        let mut since = 0;
        loop {
            let status = t
                .span("sdk.progress", parent, job, |_| {
                    client.progress(&reply.job, since, Client::LONG_POLL_MS)
                })
                .map_err(|e| format!("progress: {e}"))?;
            if let Some(error) = status.error {
                return Err(format!("job failed: {error}"));
            }
            if status.state.is_terminal() {
                break;
            }
            since = status.instrs;
        }
        let result = t
            .span("sdk.result", parent, job, |_| client.result(&reply.job))
            .map_err(|e| format!("result: {e}"))?;
        Ok((reply.cached, result.digest))
    })
}

/// A served spec's source x method combination: the class its
/// throughput samples are grouped by.
fn combo_of(spec: &JobSpec) -> usize {
    let source = if spec.workload.starts_with(SERVE_MIX) {
        1
    } else if spec.workload.starts_with("trace:") {
        2
    } else {
        0
    };
    let method = SERVE_METHODS
        .iter()
        .position(|m| *m == spec.method)
        .unwrap_or(0);
    method * 3 + source
}

/// The served spec of source x method combination `combo`.
fn serve_spec(sc: &Scale, sources: &[String; 3], combo: usize, seed: u64) -> JobSpec {
    JobSpec {
        workload: sources[combo % 3].clone(),
        method: SERVE_METHODS[combo / 3].to_owned(),
        warmup: sc.job_warmup,
        measure: sc.job_measure,
        seed,
    }
}

/// Specs a client had served, each with its result digest.
type Served = Vec<(JobSpec, String)>;

/// One SDK client of the closed loop. `k` is the client's next job
/// index; it carries over from one slot to the next.
fn serve_client(
    ctx: &Ctx<'_>,
    addr: &str,
    sources: &[String; 3],
    deadline: Instant,
    (root, phase): (u64, u64),
    client_ix: u64,
    k: &mut u64,
) -> (Samples, Served) {
    let sc = ctx.scale;
    let client = Client::new(addr);
    let mut s = Samples::default();
    let mut served = Vec::new();
    while *k < sc.min_rounds || Instant::now() < deadline {
        // Fixed order: synthetic, mix, trace; each under every method.
        let seed = mix_seed(ctx.seed, phase * 64 + client_ix + 1, *k);
        let spec = serve_spec(sc, sources, (*k % 9) as usize, seed);
        let job = ((client_ix + 1) << 32) | (*k + 1);
        *k += 1;
        let (first, secs) = timed(|| serve_once(ctx, &client, &spec, root, job));
        s.completed += 1;
        let (cached, digest) = match first {
            Ok(v) => v,
            Err(e) => {
                // A broken server would fail every later request too.
                ctx.tally.record(Some(format!("served job: {e}")));
                break;
            }
        };
        ctx.tally.check(!cached, || {
            "first submission was answered from cache".to_owned()
        });
        s.job_ms.push(secs * 1e3);
        let (again, secs) = timed(|| serve_once(ctx, &client, &spec, root, job));
        s.completed += 1;
        match again {
            Ok((cached, d)) => {
                ctx.tally.check(cached && d == digest, || {
                    format!(
                        "repeat submission: cached={cached}, digest equal={}",
                        d == digest
                    )
                });
                s.hit_ms.push(secs * 1e3);
            }
            Err(e) => {
                ctx.tally.record(Some(format!("repeat job: {e}")));
                break;
            }
        }
        served.push((spec, digest));
    }
    (s, served)
}

fn serve_loop(
    ctx: &Ctx<'_>,
    server: &Server,
    trace_spec: &str,
    seconds: f64,
    root: u64,
    phase: u64,
) -> Samples {
    let addr = server.local_addr().to_string();
    let client = Client::new(addr.clone());
    let before = client.stats();
    let sources = [
        SERVE_SYNTHETIC.to_owned(),
        SERVE_MIX.to_owned(),
        trace_spec.to_owned(),
    ];
    // The clients' own seeds are salted with `phase * 64 + client + 1`.
    let pool: Vec<JobSpec> = (0..ctx.scale.serve_pool)
        .map(|i| {
            serve_spec(
                ctx.scale,
                &sources,
                (i % 9) as usize,
                mix_seed(ctx.seed, phase * 64, i),
            )
        })
        .collect();
    let window = Duration::from_secs_f64(seconds.max(0.0));
    let (start, barrier, slot_specs) = (
        Instant::now(),
        Barrier::new(ctx.nproc),
        Mutex::new(Vec::new()),
    );
    let per_client: Vec<Samples> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.nproc as u64)
            .map(|c| {
                let (addr, sources, pool) = (&addr, &sources, &pool[..]);
                let (barrier, slot_specs) = (&barrier, &slot_specs);
                scope.spawn(move || {
                    let slots = ServeSlots {
                        start,
                        window,
                        barrier,
                        slot_specs,
                        pool,
                    };
                    serve_thread(ctx, &slots, addr, sources, (root, phase), c)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread panicked"))
            .collect()
    });
    let mut s = Samples::default();
    for client_samples in per_client {
        s.loop_secs = s.loop_secs.max(client_samples.loop_secs);
        s.absorb(client_samples);
    }
    match (before, client.stats()) {
        (Ok(b), Ok(a)) => {
            s.requests = a.requests.saturating_sub(b.requests);
            s.cache_hits = a.cache_hits.saturating_sub(b.cache_hits);
        }
        (Err(e), _) | (_, Err(e)) => ctx.tally.record(Some(format!("server stats: {e}"))),
    }
    s
}

/// How the `serve-mix` window is cut: slots, each a closed-loop
/// stretch followed by the direct recompute of what the slot served
/// (the correctness reference) and a rerun of the spec pool, so each
/// pool spec runs once per slot, spread over the window. The client
/// threads live for the whole window and do the direct runs themselves.
struct ServeSlots<'a> {
    start: Instant,
    window: Duration,
    barrier: &'a Barrier,
    /// Each client's specs of the current slot, with its index.
    slot_specs: &'a Mutex<Vec<(u64, Served)>>,
    /// The specs every slot reruns directly.
    pool: &'a [JobSpec],
}

const SERVE_SLOTS: u32 = 10;
/// Share of a slot left after its closed-loop stretch.
const SERVE_TAIL: f64 = 0.4;

/// One client thread of `serve-mix`: per slot, the closed loop, then
/// its share of the recompute and of the pool.
fn serve_thread(
    ctx: &Ctx<'_>,
    slots: &ServeSlots<'_>,
    addr: &str,
    sources: &[String; 3],
    (root, phase): (u64, u64),
    c: u64,
) -> Samples {
    let mut s = Samples::default();
    let mut k = 0;
    for slot in 1..=SERVE_SLOTS {
        let slot_end = slots
            .window
            .mul_f64(f64::from(slot) / f64::from(SERVE_SLOTS));
        // A slot whose start the previous tail delayed still gets half
        // its closed-loop stretch, so the run keeps enough latency samples.
        let per_slot = slots.window.mul_f64(1.0 / f64::from(SERVE_SLOTS));
        let loop_until = (slots.start + slot_end - per_slot.mul_f64(SERVE_TAIL))
            .max(Instant::now() + per_slot.mul_f64((1.0 - SERVE_TAIL) / 2.0));
        let ((mine, served), secs) =
            timed(|| serve_client(ctx, addr, sources, loop_until, (root, phase), c, &mut k));
        s.loop_secs += secs;
        s.absorb(mine);
        lock(slots.slot_specs).push((c, served));
        slots.barrier.wait();
        let mut all = lock(slots.slot_specs).clone();
        all.sort_by_key(|(client, _)| *client);
        let all: Served = all.into_iter().flat_map(|(_, v)| v).collect();
        recompute_share(ctx, &all, root, c);
        pool_share(ctx, &mut s, slots.pool, root, c);
        if slots.barrier.wait().is_leader() {
            lock(slots.slot_specs).clear();
        }
        slots.barrier.wait();
    }
    s
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("serve slot lock poisoned by a panicking client")
}

/// Recomputes specs `c`, `c + nproc`, ... of `served` directly; each
/// served digest must equal `run_resolved` of the same spec.
fn recompute_share(ctx: &Ctx<'_>, served: &[(JobSpec, String)], root: u64, c: u64) {
    for (i, (spec, digest)) in served
        .iter()
        .enumerate()
        .skip(c as usize)
        .step_by(ctx.nproc)
    {
        let job = i as u64 + 1;
        let Some(resolved) = resolve_served(ctx, spec, root, job) else {
            continue;
        };
        let cfg = method_cfg(&spec.method, spec.warmup, spec.measure);
        let r = ctx.tracer.span("sim.run_resolved", root, job, |_| {
            run_resolved(&resolved, cfg, spec.seed)
        });
        if let Some(direct) = digest_or_fail(ctx.tally, "direct recompute", r) {
            ctx.tally.check(&direct == digest, || {
                format!(
                    "served digest differs from direct run ({} / {})",
                    spec.workload, spec.method
                )
            });
        }
    }
}

/// Runs pool specs `c`, `c + nproc`, ... directly: plain, with
/// telemetry on, and in `nproc` time shards one after another on this
/// thread. Both client threads run their shares at once, which keeps
/// every core busy; parallel sharding is measured on the other two
/// workloads. Each kind of run must repeat its digest from slot to
/// slot, and the profiled run must match the plain one.
fn pool_share(ctx: &Ctx<'_>, s: &mut Samples, pool: &[JobSpec], root: u64, c: u64) {
    for (i, spec) in pool.iter().enumerate().skip(c as usize).step_by(ctx.nproc) {
        let job = u64::MAX - i as u64;
        let Some(resolved) = resolve_served(ctx, spec, root, job) else {
            continue;
        };
        let (cfg, class) = (
            method_cfg(&spec.method, spec.warmup, spec.measure),
            combo_of(spec),
        );
        let (r, secs) = timed(|| {
            ctx.tracer.span("sim.run_resolved", root, job, |_| {
                run_resolved(&resolved, cfg.clone(), spec.seed)
            })
        });
        let Some(digest) = digest_or_fail(ctx.tally, "pool run", r) else {
            continue;
        };
        ctx.digests
            .check(ctx.tally, "serve-mix pool", spec.seed, &digest);
        s.sim
            .add(class, spec.seed, spec.warmup + spec.measure, secs);
        let place = (root, job, class);
        profiled_check(ctx, s, &resolved, &cfg, spec.seed, &digest, place);
        sharded_check(ctx, s, &resolved, &cfg, spec.seed, place, 1);
    }
}

/// Resolves a served spec's source as the server does, recording a
/// failure.
fn resolve_served(ctx: &Ctx<'_>, spec: &JobSpec, root: u64, job: u64) -> Option<ResolvedWorkload> {
    let resolved = ctx.tracer.span("workloads.resolved_for", root, job, |_| {
        dcfb_bench::runs::resolved_for(&spec.workload, ISA)
    });
    resolved
        .map_err(|e| {
            ctx.tally
                .record(Some(format!("resolve {}: {e}", spec.workload)))
        })
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_the_geometric_mean_of_class_medians() {
        let mut t = Throughput::default();
        assert_eq!(t.summary(), None);
        // Class 0 specs run at 1, 1 and 2 MIPS; class 1 at 4, 4 and 1000.
        for (key, class, secs) in [
            (1, 0, 1.0),
            (2, 0, 1.0),
            (3, 0, 0.5),
            (4, 1, 0.25),
            (5, 1, 0.25),
            (6, 1, 0.001),
        ] {
            t.add(class, key, 1_000_000, secs);
        }
        let summary = t.summary().unwrap();
        assert!((summary - 2.0).abs() < 1e-9, "{summary}");
        assert_eq!((t.specs(), t.runs), (6, 6));
    }

    #[test]
    fn throughput_keeps_each_specs_best_run() {
        let (mut a, mut b) = (Throughput::default(), Throughput::default());
        // Spec 1 runs at 1, 4 and 2 MIPS; spec 2 at 3, then 1.
        a.add(0, 1, 1_000_000, 1.0);
        a.add(0, 2, 3_000_000, 1.0);
        b.add(0, 1, 2_000_000, 0.5);
        b.add(0, 1, 2_000_000, 1.0);
        b.add(0, 2, 1_000_000, 1.0);
        a.absorb(b);
        assert_eq!((a.specs(), a.runs), (2, 5));
        // The median of the best rates, 4 and 3.
        assert!((a.summary().unwrap() - 3.5).abs() < 1e-9);
    }

    #[test]
    fn served_specs_fall_into_nine_combinations() {
        let trace = "trace:t.dcfbt".to_owned();
        let mut seen: Vec<usize> = Vec::new();
        for method in SERVE_METHODS {
            for workload in [
                SERVE_SYNTHETIC.to_owned(),
                SERVE_MIX.to_owned(),
                trace.clone(),
            ] {
                let spec = JobSpec {
                    workload,
                    method: method.to_owned(),
                    warmup: 1,
                    measure: 1,
                    seed: 0,
                };
                seen.push(combo_of(&spec));
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
    }
}
