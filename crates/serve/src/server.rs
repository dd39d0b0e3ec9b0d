//! The job server: a hand-rolled HTTP/1.1 listener, a bounded queue
//! drained by supervised workers, and the submit/coalesce/memoize
//! logic in front of them.
//!
//! ## Protocol
//!
//! One request per connection (`Connection: close`), flat-JSON bodies:
//!
//! | Request | Reply |
//! |---|---|
//! | `GET /healthz` | `{"ok": true}` |
//! | `POST /v1/jobs` (a [`JobSpec`]) | `{"job", "state", "cached", "coalesced"}` |
//! | `GET /v1/jobs/<id>` | `{"job", "state", "instrs", "phase", "error"?}` |
//! | `GET /v1/jobs/<id>/progress?since=N&wait_ms=M` | same, long-polled |
//! | `GET /v1/jobs/<id>/result` | `{"job", "digest", "report"}` |
//! | `GET /v1/stats` | counters and queue shape |
//! | `POST /v1/shutdown` | `{"ok": true}`, then the server drains |
//!
//! Errors are `{"error": "…"}` with 400 (bad spec), 404 (unknown job),
//! 409 (result not ready / evicted), 503 (queue full), 500 (handler
//! failure).
//!
//! ## Submission semantics
//!
//! For a submitted spec with digest `id`, in order: a memoized result
//! is a **cache hit** (no work scheduled); an identical queued or
//! running job **coalesces** (the submission attaches to it); a done
//! job whose result was evicted — or a failed job — is **re-queued**;
//! a full queue is 503; otherwise the job is accepted and queued.
//! Every transition persists through [`ServerState::persist`], so a
//! killed server resumes its queue on restart.

use crate::state::{JobEntry, ServerState};
use dcfb_bench::supervisor::{JobEnvelope, Supervisor, SupervisorOptions};
use dcfb_bench::sweep;
use dcfb_errors::json::ObjectWriter;
use dcfb_errors::DcfbError;
use dcfb_sdk::wire::{JobSpec, JobState};
use dcfb_sim::{RunControl, SimConfig, SimReport, Simulator};
use dcfb_telemetry::{CounterSet, Ctr};
use dcfb_workloads::SourceSpec;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a worker executes one job. Injectable so tests can substitute a
/// gated runner (e.g. to hold a job "running" while concurrent
/// duplicates arrive).
pub type JobRunner =
    Arc<dyn Fn(&JobSpec, &mut RunControl) -> Result<SimReport, DcfbError> + Send + Sync>;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address (`HOST:PORT`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Job-state persistence file; `None` disables crash recovery.
    pub state_path: Option<PathBuf>,
    /// Worker threads draining the queue (0 = the `DCFB_JOBS` sweep
    /// default, i.e. host cores unless overridden).
    pub workers: usize,
    /// Most jobs allowed to wait in the queue before submissions get
    /// 503.
    pub queue_limit: usize,
    /// Result-cache byte budget.
    pub cache_budget: usize,
    /// Supervisor attempts per job before it fails terminally.
    pub max_attempts: u32,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            state_path: None,
            workers: 0,
            queue_limit: 1024,
            cache_budget: 8 << 20,
            max_attempts: 2,
        }
    }
}

/// Everything the listener, handlers, and workers share.
struct Shared {
    opts: ServeOptions,
    state: Mutex<ServerState>,
    /// Signaled when the queue gains work or the server shuts down.
    wake: Condvar,
    /// Signaled on job state transitions (long-pollers also poll the
    /// progress atomics on a short timeout).
    transition: Condvar,
    /// Clean-shutdown flag: stop accepting, cancel attempts, persist.
    shutdown: AtomicBool,
    /// Abrupt-death flag: like shutdown, but nothing persists after it
    /// is raised — the on-disk state stays whatever the last
    /// transition wrote, exactly as if the process had been killed.
    kill: AtomicBool,
    counters: Mutex<CounterSet>,
    /// Simulations actually executed (not served from cache).
    executed: AtomicU64,
    supervisor: Supervisor,
    runner: JobRunner,
    worker_count: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A running job server. Dropping it does not stop it; call
/// [`Server::shutdown`] (clean) or [`Server::kill`] (abrupt) and then
/// [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers persisted job state, and starts the listener
    /// and worker threads with the default (real-simulation) runner.
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Io`] when the address cannot be bound or
    /// the state file cannot be read.
    pub fn spawn(opts: ServeOptions) -> Result<Server, DcfbError> {
        Server::spawn_with_runner(opts, Arc::new(default_runner))
    }

    /// [`Server::spawn`] with an injected job runner (tests).
    ///
    /// # Errors
    ///
    /// Returns [`DcfbError::Io`] when the address cannot be bound or
    /// the state file cannot be read.
    pub fn spawn_with_runner(opts: ServeOptions, runner: JobRunner) -> Result<Server, DcfbError> {
        let (state, salvage) = match &opts.state_path {
            Some(path) => ServerState::recover(path, opts.cache_budget)?,
            None => (ServerState::new(opts.cache_budget), None),
        };
        if let Some(reason) = salvage {
            eprintln!("dcfb serve: state file damaged, salvaged prefix ({reason})");
        }
        let listener =
            TcpListener::bind(&opts.addr).map_err(|e| DcfbError::io(opts.addr.clone(), &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| DcfbError::io(opts.addr.clone(), &e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| DcfbError::io(opts.addr.clone(), &e))?;
        let worker_count = if opts.workers == 0 {
            sweep::jobs()
        } else {
            opts.workers
        };
        let supervisor = Supervisor::new(SupervisorOptions {
            max_attempts: opts.max_attempts.max(1),
            unit: Duration::ZERO,
            jobs: 1,
            ..SupervisorOptions::default()
        });
        let shared = Arc::new(Shared {
            opts,
            state: Mutex::new(state),
            wake: Condvar::new(),
            transition: Condvar::new(),
            shutdown: AtomicBool::new(false),
            kill: AtomicBool::new(false),
            counters: Mutex::new(CounterSet::new()),
            executed: AtomicU64::new(0),
            supervisor,
            runner,
            worker_count,
        });
        let mut workers = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let accept_shared = Arc::clone(&shared);
        let listener_handle = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Server {
            shared,
            addr,
            listener: Some(listener_handle),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Simulations executed so far (excludes cache hits).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Clean shutdown (the SIGTERM path): stop accepting, cancel
    /// running attempts, persist state. Returns immediately; call
    /// [`Server::wait`] to join.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown(false);
    }

    /// Abrupt death for crash-recovery tests: cancel everything and
    /// stop, but persist NOTHING after this point — the state file
    /// keeps whatever the last transition wrote, as a real `kill -9`
    /// would.
    pub fn kill(&self) {
        self.shared.begin_shutdown(true);
    }

    /// Joins the listener and worker threads. Idempotent.
    pub fn wait(&mut self) {
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Shared {
    fn begin_shutdown(&self, abrupt: bool) {
        if abrupt {
            self.kill.store(true, Ordering::SeqCst);
        }
        self.shutdown.store(true, Ordering::SeqCst);
        let state = lock(&self.state);
        for entry in state.jobs.values() {
            if let Some(control) = &entry.control {
                control.cancel();
            }
        }
        drop(state);
        self.wake.notify_all();
        self.transition.notify_all();
    }

    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn persist_locked(&self, state: &ServerState) {
        if self.kill.load(Ordering::SeqCst) {
            return;
        }
        if let Err(e) = state.persist(self.opts.state_path.as_deref()) {
            eprintln!("dcfb serve: state persist failed: {e}");
        }
    }

    fn bump(&self, ctr: Ctr, n: u64) {
        if n > 0 {
            lock(&self.counters).add(ctr, n);
        }
    }
}

/// The default runner: a real simulation of the spec resolved through
/// the workload-source registry (synthetic names, `mix:` interleavings,
/// `trace:` replays), progress published through the control,
/// cancellation honored.
fn default_runner(spec: &JobSpec, control: &mut RunControl) -> Result<SimReport, DcfbError> {
    let (cfg, _source) = resolve_spec(spec)?;
    let resolved = dcfb_bench::runs::resolved_for(&spec.workload, cfg.isa)?;
    let mut sim = Simulator::try_with_code(
        cfg,
        resolved.code(),
        resolved.start_pc(),
        resolved.name().to_owned(),
    )?;
    sim.attach_control(control.clone());
    let mut stream = resolved.stream(spec.seed);
    let report = sim.run(&mut stream);
    if sim.interrupted() {
        return Err(DcfbError::protocol(format!(
            "job {} cancelled mid-run",
            spec.digest()
        )));
    }
    Ok(report)
}

/// Validates a spec against the registries and builds its simulation
/// configuration. The workload check is syntactic ([`SourceSpec::parse`]
/// — mix tenants and options are validated, unknown names enumerate
/// every source); a `trace:` path is only read when the job actually
/// runs, so submission stays cheap.
fn resolve_spec(spec: &JobSpec) -> Result<(SimConfig, SourceSpec), DcfbError> {
    let source = SourceSpec::parse(&spec.workload)?;
    let mut cfg = SimConfig::for_method(&spec.method).ok_or_else(|| DcfbError::UnknownMethod {
        name: spec.method.clone(),
        available: dcfb_prefetch::method_names().map(str::to_owned).collect(),
    })?;
    cfg.warmup_instrs = spec.warmup;
    cfg.measure_instrs = spec.measure;
    cfg.validate()?;
    Ok((cfg, source))
}

/// Renders a report for the wire: the headline scalars plus the full
/// digest (the byte-identity witness).
pub fn render_report(report: &SimReport) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("method", &report.method)
        .str_field("workload", &report.workload)
        .u64_field("cycles", report.cycles)
        .u64_field("instrs", report.instrs)
        .f64_field("ipc", report.ipc())
        .f64_field("l1i_mpki", report.l1i_mpki())
        .u64_field("seq_misses", report.seq_misses)
        .u64_field("disc_misses", report.disc_misses)
        .u64_field("stall_l1i", report.stall_l1i)
        .u64_field("stall_btb", report.stall_btb)
        .u64_field("stall_redirect", report.stall_redirect);
    w.finish()
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let Some(id) = claim_next_job(shared) else {
            return; // shutting down
        };
        let Some(spec) = mark_running(shared, &id) else {
            continue; // entry vanished (cannot happen in practice)
        };
        run_one(shared, &id, &spec);
    }
}

/// Blocks until a queued job id is available; `None` on shutdown.
fn claim_next_job(shared: &Arc<Shared>) -> Option<String> {
    let mut state = lock(&shared.state);
    loop {
        if shared.stopping() {
            return None;
        }
        if let Some(id) = state.queue.pop_front() {
            return Some(id);
        }
        state = match shared.wake.wait_timeout(state, Duration::from_millis(100)) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

fn mark_running(shared: &Arc<Shared>, id: &str) -> Option<JobSpec> {
    let mut state = lock(&shared.state);
    let entry = state.jobs.get_mut(id)?;
    entry.state = JobState::Running;
    let spec = entry.spec.clone();
    shared.persist_locked(&state);
    shared.transition.notify_all();
    Some(spec)
}

/// Runs one job under the supervisor and records its terminal state.
fn run_one(shared: &Arc<Shared>, id: &str, spec: &JobSpec) {
    let envelope = match resolve_spec(spec) {
        Ok((_, source)) => JobEnvelope::new(source.canonical_name(), &spec.method),
        Err(e) => {
            finish_failed(shared, id, &e.to_string());
            return;
        }
    };
    let report = shared.supervisor.run_with(vec![envelope], |_env, attempt| {
        if shared.stopping() {
            return Err(DcfbError::protocol("server shutting down".to_owned()));
        }
        let mut control = attempt.control.clone();
        let cell = control.observe_progress();
        {
            let mut state = lock(&shared.state);
            if let Some(entry) = state.jobs.get_mut(id) {
                entry.progress = Some(cell);
                entry.control = Some(control.clone());
            }
        }
        (shared.runner)(spec, &mut control)
    });
    let outcome = report
        .records
        .into_iter()
        .next()
        .map(|r| r.outcome)
        .ok_or_else(|| DcfbError::protocol("supervisor returned no record".to_owned()));
    match outcome {
        Ok(dcfb_bench::supervisor::JobOutcome::Completed(report)) => {
            shared.executed.fetch_add(1, Ordering::Relaxed);
            finish_done(shared, id, &report);
        }
        Ok(dcfb_bench::supervisor::JobOutcome::Quarantined(e)) | Err(e) => {
            if shared.stopping() {
                // Cancelled by shutdown, not failed: put the job back
                // in the queued state so a restarted server resumes it.
                requeue_for_restart(shared, id);
            } else {
                finish_failed(shared, id, &e.to_string());
            }
        }
    }
}

fn finish_done(shared: &Arc<Shared>, id: &str, report: &SimReport) {
    let json_text = render_report(report);
    let digest = report.digest();
    let mut state = lock(&shared.state);
    state
        .cache
        .insert(id, json_text, digest, Some(report.clone()));
    let evicted = state.cache.take_evictions();
    if let Some(entry) = state.jobs.get_mut(id) {
        entry.state = JobState::Done;
        entry.error = None;
        entry.control = None;
    }
    shared.persist_locked(&state);
    drop(state);
    shared.bump(Ctr::ServeEvictions, evicted);
    shared.transition.notify_all();
}

fn finish_failed(shared: &Arc<Shared>, id: &str, error: &str) {
    let mut state = lock(&shared.state);
    if let Some(entry) = state.jobs.get_mut(id) {
        entry.state = JobState::Failed;
        entry.error = Some(error.to_owned());
        entry.control = None;
    }
    shared.persist_locked(&state);
    drop(state);
    shared.transition.notify_all();
}

fn requeue_for_restart(shared: &Arc<Shared>, id: &str) {
    let mut state = lock(&shared.state);
    if let Some(entry) = state.jobs.get_mut(id) {
        entry.state = JobState::Queued;
        entry.control = None;
        entry.progress = None;
    }
    state.queue.push_back(id.to_owned());
    shared.persist_locked(&state);
    drop(state);
    shared.transition.notify_all();
}

// ---------------------------------------------------------------------
// HTTP front end
// ---------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.stopping() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                std::thread::spawn(move || handle_connection(stream, &shared));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let reply = match read_request(&mut stream) {
        Ok((method, path, body)) => {
            shared.bump(Ctr::ServeRequests, 1);
            route(shared, &method, &path, &body)
        }
        Err(e) => error_reply(400, &e.to_string()),
    };
    let _ = stream.write_all(reply.as_bytes());
    let _ = stream.flush();
}

/// Reads one HTTP/1.1 request: request line, headers (only
/// `Content-Length` is honored), body.
fn read_request(stream: &mut TcpStream) -> Result<(String, String, String), DcfbError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| DcfbError::protocol(format!("read request: {e}")))?;
        if n == 0 {
            return Err(DcfbError::protocol(
                "connection closed mid-request".to_owned(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > 64 << 10 {
            return Err(DcfbError::protocol("request headers too large".to_owned()));
        }
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| DcfbError::protocol("empty request line".to_owned()))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| DcfbError::protocol(format!("bad request line {request_line:?}")))?
        .to_owned();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| DcfbError::protocol("bad Content-Length".to_owned()))?;
            }
        }
    }
    if content_length > 1 << 20 {
        return Err(DcfbError::protocol("request body too large".to_owned()));
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| DcfbError::protocol(format!("read body: {e}")))?;
        if n == 0 {
            return Err(DcfbError::protocol("connection closed mid-body".to_owned()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body)
        .map_err(|_| DcfbError::protocol("request body is not UTF-8".to_owned()))?;
    Ok((method, path, body))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn http_reply(status: u16, reason: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

fn ok_reply(body: &str) -> String {
    http_reply(200, "OK", body)
}

fn error_reply(status: u16, message: &str) -> String {
    let reason = match status {
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let mut w = ObjectWriter::new();
    w.str_field("error", message);
    http_reply(status, reason, &w.finish())
}

fn route(shared: &Arc<Shared>, method: &str, path: &str, body: &str) -> String {
    let (path, query) = match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    };
    match (method, path) {
        ("GET", "/healthz") => {
            let mut w = ObjectWriter::new();
            w.bool_field("ok", true);
            ok_reply(&w.finish())
        }
        ("POST", "/v1/jobs") => handle_submit(shared, body),
        ("GET", "/v1/stats") => handle_stats(shared),
        ("POST", "/v1/shutdown") => {
            shared.begin_shutdown(false);
            let mut w = ObjectWriter::new();
            w.bool_field("ok", true);
            ok_reply(&w.finish())
        }
        ("GET", _) if path.starts_with("/v1/jobs/") => {
            let rest = &path["/v1/jobs/".len()..];
            match rest.split_once('/') {
                None => handle_status(shared, rest),
                Some((id, "progress")) => handle_progress(shared, id, query),
                Some((id, "result")) => handle_result(shared, id),
                Some(_) => error_reply(404, &format!("no route {path}")),
            }
        }
        _ => error_reply(404, &format!("no route {method} {path}")),
    }
}

fn submit_reply(id: &str, state: JobState, cached: bool, coalesced: bool) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("job", id)
        .str_field("state", state.name())
        .bool_field("cached", cached)
        .bool_field("coalesced", coalesced);
    ok_reply(&w.finish())
}

fn handle_submit(shared: &Arc<Shared>, body: &str) -> String {
    if shared.stopping() {
        return error_reply(503, "server shutting down");
    }
    let spec = match JobSpec::from_json(body) {
        Ok(s) => s,
        Err(e) => return error_reply(400, &e.to_string()),
    };
    if let Err(e) = resolve_spec(&spec) {
        return error_reply(400, &e.to_string());
    }
    let id = spec.digest();
    let mut state = lock(&shared.state);
    // 1. Memoized: answer from cache, no work scheduled.
    if state.cache.get(&id).is_some() {
        let evicted = state.cache.take_evictions();
        if let Some(entry) = state.jobs.get_mut(&id) {
            entry.state = JobState::Done;
        } else {
            let mut entry = JobEntry::queued(spec);
            entry.state = JobState::Done;
            state.jobs.insert(id.clone(), entry);
        }
        drop(state);
        shared.bump(Ctr::ServeCacheHits, 1);
        shared.bump(Ctr::ServeEvictions, evicted);
        return submit_reply(&id, JobState::Done, true, false);
    }
    let evicted = state.cache.take_evictions();
    // 2. In flight: coalesce onto the queued/running job.
    if let Some(entry) = state.jobs.get(&id) {
        if !entry.state.is_terminal() {
            let job_state = entry.state;
            drop(state);
            shared.bump(Ctr::ServeCoalesced, 1);
            shared.bump(Ctr::ServeEvictions, evicted);
            return submit_reply(&id, job_state, false, true);
        }
    }
    // 3. Terminal but unusable (result evicted, or failed): re-queue,
    //    subject to the same queue bound as a fresh submission.
    if state.queue.len() >= shared.opts.queue_limit {
        drop(state);
        shared.bump(Ctr::ServeEvictions, evicted);
        return error_reply(
            503,
            &format!("queue full ({} jobs waiting)", shared.opts.queue_limit),
        );
    }
    let entry = state
        .jobs
        .entry(id.clone())
        .or_insert_with(|| JobEntry::queued(spec));
    entry.state = JobState::Queued;
    entry.error = None;
    entry.progress = None;
    entry.control = None;
    state.queue.push_back(id.clone());
    shared.persist_locked(&state);
    drop(state);
    shared.bump(Ctr::ServeEvictions, evicted);
    shared.wake.notify_one();
    submit_reply(&id, JobState::Queued, false, false)
}

fn status_body(id: &str, entry: &JobEntry) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("job", id)
        .str_field("state", entry.state.name())
        .u64_field("instrs", entry.instrs())
        .str_field("phase", entry.phase());
    if let Some(error) = &entry.error {
        w.str_field("error", error);
    }
    w.finish()
}

fn handle_status(shared: &Arc<Shared>, id: &str) -> String {
    let state = lock(&shared.state);
    match state.jobs.get(id) {
        Some(entry) => ok_reply(&status_body(id, entry)),
        None => error_reply(404, &format!("unknown job {id}")),
    }
}

/// Long-poll: replies as soon as the job's retired-instruction count
/// moves past `since`, the job goes terminal, the server shuts down,
/// or `wait_ms` elapses.
fn handle_progress(shared: &Arc<Shared>, id: &str, query: &str) -> String {
    let mut since = 0u64;
    let mut wait_ms = 0u64;
    for pair in query.split('&') {
        if let Some((k, v)) = pair.split_once('=') {
            match k {
                "since" => since = v.parse().unwrap_or(0),
                "wait_ms" => wait_ms = v.parse().unwrap_or(0),
                _ => {}
            }
        }
    }
    let deadline = Instant::now() + Duration::from_millis(wait_ms.min(10_000));
    let mut state = lock(&shared.state);
    loop {
        let Some(entry) = state.jobs.get(id) else {
            return error_reply(404, &format!("unknown job {id}"));
        };
        let moved = entry.instrs() > since;
        if entry.state.is_terminal() || moved || shared.stopping() {
            return ok_reply(&status_body(id, entry));
        }
        let now = Instant::now();
        if now >= deadline {
            return ok_reply(&status_body(id, entry));
        }
        // Progress cells advance without notifying; wake periodically
        // to re-read them, and immediately on state transitions.
        let step = (deadline - now).min(Duration::from_millis(10));
        state = match shared.transition.wait_timeout(state, step) {
            Ok((g, _)) => g,
            Err(poisoned) => poisoned.into_inner().0,
        };
    }
}

fn handle_result(shared: &Arc<Shared>, id: &str) -> String {
    let mut state = lock(&shared.state);
    let Some(entry) = state.jobs.get(id) else {
        return error_reply(404, &format!("unknown job {id}"));
    };
    match entry.state {
        JobState::Done => {}
        JobState::Failed => {
            let detail = entry.error.clone().unwrap_or_default();
            return error_reply(409, &format!("job {id} failed: {detail}"));
        }
        _ => return error_reply(409, &format!("job {id} not finished")),
    }
    match state.cache.get(id) {
        Some((json_text, digest)) => {
            let evicted = state.cache.take_evictions();
            drop(state);
            shared.bump(Ctr::ServeEvictions, evicted);
            let mut w = ObjectWriter::new();
            w.str_field("job", id)
                .str_field("digest", &digest)
                .str_field("report", &json_text);
            ok_reply(&w.finish())
        }
        None => {
            let evicted = state.cache.take_evictions();
            drop(state);
            shared.bump(Ctr::ServeEvictions, evicted);
            error_reply(409, &format!("result for job {id} evicted; resubmit"))
        }
    }
}

fn handle_stats(shared: &Arc<Shared>) -> String {
    let state = lock(&shared.state);
    let counters = lock(&shared.counters);
    let mut w = ObjectWriter::new();
    for ctr in [
        Ctr::ServeRequests,
        Ctr::ServeCacheHits,
        Ctr::ServeCoalesced,
        Ctr::ServeEvictions,
    ] {
        w.u64_field(ctr.name(), counters.get(ctr));
    }
    w.u64_field("executed", shared.executed.load(Ordering::Relaxed))
        .u64_field("cache_bytes", state.cache.bytes() as u64)
        .u64_field("cache_entries", state.cache.len() as u64)
        .u64_field("queued", state.count(JobState::Queued))
        .u64_field("running", state.count(JobState::Running))
        .u64_field("done", state.count(JobState::Done))
        .u64_field("failed", state.count(JobState::Failed))
        .u64_field("workers", shared.worker_count as u64);
    ok_reply(&w.finish())
}
