//! Tier-1 smoke for `dcfb serve`: a real server on an ephemeral port
//! driven end to end through the SDK client — submit, stream progress,
//! fetch the result, hit the cache, coalesce duplicates, bound the
//! queue, and shut down cleanly.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dcfb_errors::DcfbError;
use dcfb_sdk::{Client, JobSpec, JobState};
use dcfb_serve::server::JobRunner;
use dcfb_serve::{ServeOptions, Server};
use dcfb_sim::{SimConfig, SimReport, Simulator};
use dcfb_workloads::Walker;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn tiny_spec() -> JobSpec {
    JobSpec {
        workload: "Web Search".to_owned(),
        method: "Baseline".to_owned(),
        warmup: 400,
        measure: 2_000,
        seed: dcfb_bench::runs::TRACE_SEED,
    }
}

/// The same simulation the server's default runner performs, executed
/// directly — the byte-identity reference.
fn direct_digest(spec: &JobSpec) -> String {
    let workload = dcfb_workloads::all_workloads()
        .into_iter()
        .find(|w| w.name == spec.workload)
        .expect("workload in catalog");
    let mut cfg = SimConfig::for_method(&spec.method).expect("method in registry");
    cfg.warmup_instrs = spec.warmup;
    cfg.measure_instrs = spec.measure;
    let image = dcfb_bench::runs::image_for(&workload, cfg.isa);
    let mut sim = Simulator::try_new(cfg, Arc::clone(&image)).expect("simulator builds");
    let mut walker = Walker::new(image, spec.seed);
    sim.run(&mut walker).digest()
}

#[test]
fn submit_stream_fetch_memoize_shutdown() {
    let mut server = Server::spawn(ServeOptions::default()).expect("server binds");
    let client = Client::new(server.local_addr().to_string());
    client.health().expect("health answers");

    let spec = tiny_spec();
    let reply = client.submit(&spec).expect("submission accepted");
    assert!(!reply.cached && !reply.coalesced);
    assert_eq!(reply.job, spec.digest());

    // Progress streams monotonically to a terminal state.
    let mut last_instrs = 0u64;
    let final_status = client
        .stream_progress(&reply.job, |s| {
            assert!(s.instrs >= last_instrs, "progress went backwards");
            last_instrs = s.instrs;
        })
        .expect("progress stream completes");
    assert_eq!(final_status.state, JobState::Done);

    let result = client.result(&reply.job).expect("result available");
    assert_eq!(
        result.digest,
        direct_digest(&spec),
        "served digest != direct run"
    );
    assert_eq!(server.executed(), 1);

    // Identical resubmission is memoized: no second simulation runs,
    // and the bytes served are identical.
    let again = client.submit(&spec).expect("resubmission accepted");
    assert!(again.cached, "identical spec must hit the cache");
    let cached = client.result(&again.job).expect("cached result");
    assert_eq!(cached.report_json, result.report_json);
    assert_eq!(cached.digest, result.digest);
    assert_eq!(server.executed(), 1, "cache hit must not re-simulate");

    let stats = client.stats().expect("stats answer");
    assert!(stats.requests >= 4);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.done, 1);
    assert_eq!(stats.executed, 1);

    client.shutdown().expect("shutdown accepted");
    server.wait();
}

/// A runner that parks every job on a gate until the test releases it,
/// so in-flight windows are deterministic on a single-core host.
fn gated_runner(gate: Arc<(Mutex<bool>, Condvar)>) -> JobRunner {
    Arc::new(move |spec, _control| {
        let (lock, cvar) = &*gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        Ok(SimReport {
            method: spec.method.clone(),
            workload: spec.workload.clone(),
            cycles: 1,
            instrs: spec.measure,
            ..SimReport::default()
        })
    })
}

fn release(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cvar) = &**gate;
    *lock.lock().unwrap() = true;
    cvar.notify_all();
}

#[test]
fn concurrent_identical_submissions_coalesce() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut server = Server::spawn_with_runner(
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
        gated_runner(Arc::clone(&gate)),
    )
    .expect("server binds");
    let client = Client::new(server.local_addr().to_string());

    let spec = tiny_spec();
    let first = client.submit(&spec).expect("first submission");
    assert!(!first.cached && !first.coalesced);

    // Wait until the worker has claimed the job, then submit the same
    // spec again while it is provably in flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client.status(&first.job).expect("status");
        if status.state == JobState::Running {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    let second = client.submit(&spec).expect("duplicate submission");
    assert!(second.coalesced, "in-flight duplicate must coalesce");
    assert!(!second.cached);
    assert_eq!(second.job, first.job);

    release(&gate);
    client.wait(&first.job).expect("job completes");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.coalesced, 1);
    assert_eq!(stats.executed, 1, "coalesced submission must not re-run");

    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn full_queue_rejects_with_503() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let mut server = Server::spawn_with_runner(
        ServeOptions {
            workers: 1,
            queue_limit: 1,
            ..ServeOptions::default()
        },
        gated_runner(Arc::clone(&gate)),
    )
    .expect("server binds");
    let client = Client::new(server.local_addr().to_string());

    let mut spec_a = tiny_spec();
    spec_a.seed = 1;
    let a = client.submit(&spec_a).expect("first submission");
    // Wait for the single worker to claim A so the queue is empty.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if client.status(&a.job).expect("status").state == JobState::Running {
            break;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut spec_b = tiny_spec();
    spec_b.seed = 2;
    client.submit(&spec_b).expect("fills the one queue slot");

    let mut spec_c = tiny_spec();
    spec_c.seed = 3;
    let err = client.submit(&spec_c).expect_err("queue is full");
    match err {
        DcfbError::Protocol { message } => {
            assert!(message.contains("503"), "{message}");
            assert!(message.contains("queue full"), "{message}");
        }
        other => panic!("expected a protocol error, got {other}"),
    }

    release(&gate);
    client.wait(&a.job).expect("A completes");
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn bad_submissions_are_rejected_at_the_door() {
    let mut server = Server::spawn(ServeOptions::default()).expect("server binds");
    let client = Client::new(server.local_addr().to_string());

    let mut bad_workload = tiny_spec();
    bad_workload.workload = "No Such Trace".to_owned();
    let err = client.submit(&bad_workload).expect_err("unknown workload");
    assert!(err.to_string().contains("400"), "{err}");

    let mut bad_method = tiny_spec();
    bad_method.method = "Oracle".to_owned();
    let err = client.submit(&bad_method).expect_err("unknown method");
    assert!(err.to_string().contains("400"), "{err}");

    let err = client.status("feedfacefeedface").expect_err("unknown job");
    assert!(err.to_string().contains("404"), "{err}");

    assert_eq!(server.executed(), 0);
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn deeply_nested_body_is_a_protocol_error_and_the_server_survives() {
    let mut server = Server::spawn(ServeOptions::default()).expect("server binds");
    let client = Client::new(server.local_addr().to_string());

    // Exactly the 1 MiB body cap: one object opening a million arrays.
    let prefix = "{\"workload\":";
    let body = format!("{prefix}{}", "[".repeat((1 << 20) - prefix.len()));
    assert_eq!(body.len(), 1 << 20);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connects");
    write!(
        stream,
        "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("request sent");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("reply read");
    assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    assert!(reply.contains("protocol error"), "{reply}");
    assert!(reply.contains("nesting deeper than 128"), "{reply}");

    // The connection thread returned an error instead of overflowing
    // its stack: the server still answers and still runs jobs.
    client
        .health()
        .expect("health answers after the hostile body");
    let submitted = client.submit(&tiny_spec()).expect("submission accepted");
    client.wait(&submitted.job).expect("job completes");
    assert_eq!(server.executed(), 1);
    client.shutdown().expect("shutdown");
    server.wait();
}

#[test]
fn tenant_mix_jobs_are_servable_and_byte_identical() {
    // A `mix:` spec is a first-class workload source: it must submit,
    // run, and return the same digest a direct resolved run produces.
    let mut server = Server::spawn(ServeOptions::default()).expect("server binds");
    let client = Client::new(server.local_addr().to_string());

    let mut spec = tiny_spec();
    spec.workload = "mix:Web Frontend+Web Search,quantum=500".to_owned();
    let reply = client.submit(&spec).expect("mix submission accepted");
    let result = client.wait(&reply.job).expect("mix job completes");

    let mut cfg = SimConfig::for_method(&spec.method).expect("method in registry");
    cfg.warmup_instrs = spec.warmup;
    cfg.measure_instrs = spec.measure;
    let resolved = dcfb_bench::runs::resolved_for(&spec.workload, cfg.isa).expect("mix resolves");
    let direct = dcfb_sim::run_resolved(&resolved, cfg, spec.seed).expect("direct mix run");
    assert_eq!(result.digest, direct.digest(), "served mix digest drifted");

    // An unknown tenant inside the mix is rejected at the door, like
    // any unknown workload.
    let mut bad = tiny_spec();
    bad.workload = "mix:Web Frontend+No Such Tenant".to_owned();
    let err = client.submit(&bad).expect_err("unknown tenant");
    assert!(err.to_string().contains("400"), "{err}");

    client.shutdown().expect("shutdown");
    server.wait();
}
