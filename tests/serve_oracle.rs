//! Oracle tests for the serving layer: a mid-stream cancel must come back
//! as a degraded final carrying the best streamed incumbent, a client
//! disconnect must free its worker promptly (counted as a cancellation),
//! and a drain shutdown under chaos must emit a final frame for every
//! admitted job and report every quarantined session in the final stats.
//! A reached `max_cost` target stops a search early, overload is shed
//! with one of three reasons and a backoff hint, a hostile frame is an
//! error reply instead of a crash, and a 1-worker daemon replays the
//! smoke corpus byte-identically to the batch engine.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use brel_bench::engine_batch::{corpus, CorpusOptions};
use brel_suite::benchdata::random_well_defined_relation;
use brel_suite::engine::{BackendKind, Engine, FaultPlan, JobBudget, JobSpec, RelationSpec};
use brel_suite::serve::{
    read_frame, AdmissionConfig, Client, DrainReport, FinalReport, Frame, ServeConfig, Server,
    Submit, SHED_BACKOFF_MS,
};

/// Spawns a server and hands back its address plus the drain handle; the
/// handle resolving proves every server thread was joined.
fn start(config: ServeConfig) -> (SocketAddr, JoinHandle<DrainReport>) {
    let server = Server::start(config).expect("bind");
    let addr = server.addr();
    (
        addr,
        std::thread::spawn(move || server.run_until_shutdown()),
    )
}

/// An unbounded single-backend BREL job on a relation large enough that
/// exploration keeps running until it is cancelled.
fn long_job(seed: u64) -> JobSpec {
    let (_space, relation) = random_well_defined_relation(7, 4, 0.4, seed);
    let mut job = JobSpec::single(
        format!("long{seed}"),
        RelationSpec::from_relation(&relation).unwrap(),
        BackendKind::Brel,
    );
    job.budget = JobBudget {
        max_explored: None,
        fifo_capacity: None,
        ..JobBudget::default()
    };
    job
}

/// A small default-budget portfolio job that finishes quickly.
fn quick_job(name: &str, seed: u64) -> JobSpec {
    let (_space, relation) = random_well_defined_relation(3, 2, 0.3, seed);
    JobSpec::portfolio(name, RelationSpec::from_relation(&relation).unwrap())
}

#[test]
fn cancel_after_first_incumbent_degrades_to_best_incumbent() {
    let (addr, handle) = start(ServeConfig::default());
    let mut client = Client::connect(addr).unwrap();

    let outcome = client
        .solve(&long_job(11), "oracle", None, None, true)
        .unwrap();
    assert!(
        !outcome.incumbents.is_empty(),
        "anytime search must stream at least the quick seed"
    );
    let report = outcome
        .final_report
        .expect("cancelled job still gets a final");
    assert_eq!(report.outcome, "degraded", "cancel truncates, not kills");
    assert!(report.degraded);
    assert!(
        report.fault.as_deref().unwrap_or("").contains("cancelled"),
        "fault should record the cancellation, got {:?}",
        report.fault
    );
    let first_cost = outcome.incumbents[0].0;
    assert!(
        report.cost.expect("degraded final carries the incumbent") <= first_cost,
        "final cost must be no worse than the first streamed incumbent"
    );

    let drain = {
        client.shutdown_and_wait().unwrap();
        handle.join().unwrap()
    };
    assert_eq!(drain.stats.admitted, drain.stats.completed);
}

#[test]
fn client_disconnect_frees_the_worker() {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);

    // Client A occupies the only worker with an unbounded job, confirms
    // the solve is live (first incumbent), then vanishes mid-stream.
    {
        let mut hog = Client::connect(addr).unwrap();
        hog.send(&Frame::Submit(Submit {
            client: "hog".to_string(),
            job: long_job(23),
            deadline_ms: None,
            max_cost: None,
        }))
        .unwrap();
        assert!(matches!(hog.recv().unwrap(), Frame::Admitted { .. }));
        assert!(matches!(hog.recv().unwrap(), Frame::Incumbent { .. }));
    } // dropped: the TCP connection closes while the job is running

    // A polite client must still get service: the disconnect cancels the
    // hogged job at the next scheduler tick and frees the worker.
    let mut polite = Client::connect(addr).unwrap();
    let outcome = polite
        .solve(
            &quick_job("after-disconnect", 5),
            "polite",
            None,
            None,
            false,
        )
        .unwrap();
    let report = outcome.final_report.expect("final after worker freed");
    assert_eq!(report.outcome, "solved");

    let stats = polite.stats().unwrap();
    assert!(
        stats.cancelled >= 1,
        "the disconnect must be accounted as a cancellation, got {stats:?}"
    );

    polite.shutdown_and_wait().unwrap();
    let drain = handle.join().unwrap();
    assert_eq!(drain.stats.admitted, drain.stats.completed);
    assert_eq!(drain.stats.inflight, 0);
    assert_eq!(drain.stats.queue_depth, 0);
}

#[test]
fn drain_under_chaos_reports_every_quarantine() {
    let jobs: Vec<JobSpec> = (0..4u64)
        .map(|i| quick_job(&format!("rand{i}"), 40 + i))
        .collect();
    let names: Vec<&str> = jobs.iter().map(|j| j.name.as_str()).collect();
    let plan = Arc::new(FaultPlan::seeded(9, &names));
    let targets: Vec<String> = plan.targets().iter().map(|t| t.to_string()).collect();

    let config = ServeConfig {
        workers: 2,
        fault_plan: Some(Arc::clone(&plan)),
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);

    let mut client = Client::connect(addr).unwrap();
    let mut finals = Vec::new();
    for job in &jobs {
        let outcome = client.solve(job, "chaos", None, None, false).unwrap();
        assert!(outcome.rejected.is_none(), "chaos corpus must be admitted");
        finals.push(outcome.final_report.expect("every admitted job finishes"));
    }

    // Faults stay contained: targeted jobs report structured non-solved
    // outcomes but still carry a recovered solution; clean jobs solve.
    assert_eq!(finals.len(), jobs.len());
    for report in &finals {
        if targets.contains(&report.name) {
            assert_ne!(
                report.outcome, "solved",
                "{} should be faulted",
                report.name
            );
            assert!(
                report.cost.is_some(),
                "faulted job {} lost its recovered solution",
                report.name
            );
        } else {
            assert_eq!(
                report.outcome, "solved",
                "fault leaked onto {}",
                report.name
            );
        }
    }
    assert_eq!(plan.num_fired(), 3, "the seeded plan must fire completely");

    // The final stats frame of the drain and the server's own drain
    // report must agree — no quarantined session goes unreported.
    let stats_frame = client.shutdown_and_wait().unwrap();
    let drain = handle.join().unwrap();
    assert!(stats_frame.draining);
    assert!(
        drain.stats.quarantines >= 1,
        "the injected panic must quarantine a session, got {:?}",
        drain.stats
    );
    assert_eq!(stats_frame.quarantines, drain.stats.quarantines);
    assert_eq!(drain.stats.admitted, drain.stats.completed);
    assert_eq!(drain.stats.admitted, finals.len() as u64);
}

/// A drained server must still answer a cancel-heavy workload within a
/// bounded time — the oracle for "queued jobs degrade instead of running
/// to completion during a drain".
#[test]
fn drain_degrades_queued_jobs_quickly() {
    let config = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = start(config);

    // One unbounded job occupies the worker; three more queue behind it.
    let mut client = Client::connect(addr).unwrap();
    let mut tickets = Vec::new();
    for i in 0..4u64 {
        client
            .send(&Frame::Submit(Submit {
                client: "drainer".to_string(),
                job: long_job(60 + i),
                deadline_ms: None,
                max_cost: None,
            }))
            .unwrap();
        loop {
            match client.recv().unwrap() {
                Frame::Admitted { job, .. } => {
                    tickets.push(job);
                    break;
                }
                // The first job is already running and streaming.
                Frame::Incumbent { .. } => {}
                other => panic!("expected admission, got {other:?}"),
            }
        }
    }

    // Drain: every admitted job must come back (degraded is fine), and
    // the whole shutdown must complete far faster than any of the four
    // unbounded jobs could have run to completion.
    let started = std::time::Instant::now();
    client.send(&Frame::Shutdown).unwrap();
    let mut finals = 0;
    loop {
        match client.recv().unwrap() {
            Frame::Final(report) => {
                assert!(tickets.contains(&report.job));
                finals += 1;
            }
            Frame::Incumbent { .. } => {}
            Frame::Stats(stats) => {
                assert!(stats.draining);
                break;
            }
            other => panic!("unexpected frame during drain: {other:?}"),
        }
    }
    let drain = handle.join().unwrap();
    assert_eq!(finals, tickets.len());
    assert_eq!(drain.stats.admitted, drain.stats.completed);
    assert!(
        drain.stats.drained >= 3,
        "the queued jobs must finish during the drain, got {:?}",
        drain.stats
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "drain must cancel queued work, not run it to completion"
    );
}

/// Reads frames until one that is not an incumbent arrives.
fn recv_skipping_incumbents(client: &mut Client) -> Frame {
    loop {
        match client.recv().unwrap() {
            Frame::Incumbent { .. } => {}
            other => return other,
        }
    }
}

/// Submits without waiting for the admission decision.
fn submit(client: &mut Client, client_id: &str, job: JobSpec, deadline_ms: Option<u64>) {
    client
        .send(&Frame::Submit(Submit {
            client: client_id.to_string(),
            job,
            deadline_ms,
            max_cost: None,
        }))
        .unwrap();
}

/// The serial-replay determinism gate: a 1-worker daemon fed the smoke
/// corpus one job at a time streams at least one incumbent per job and
/// sends finals whose timing-free view is byte-identical to the batch
/// engine's reports, pinned to the smoke corpus's cost fingerprint.
#[test]
fn serial_replay_matches_the_batch_engine_byte_for_byte() {
    let jobs = corpus(&CorpusOptions::smoke());
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(addr).unwrap();
    let served: Vec<FinalReport> = jobs
        .iter()
        .map(|job| {
            let outcome = client.solve(job, "replay", None, None, false).unwrap();
            assert!(
                !outcome.incumbents.is_empty(),
                "{} streamed no incumbent",
                job.name
            );
            outcome.final_report.expect("every replayed job finishes")
        })
        .collect();
    client.shutdown_and_wait().unwrap();
    let drain = handle.join().unwrap();
    assert_eq!(drain.stats.admitted, drain.stats.completed);

    let batch = Engine::with_workers(1).solve_batch(&jobs);
    assert_eq!(served.len(), batch.jobs.len());
    for (ticket, (from_serve, from_batch)) in served.iter().zip(&batch.jobs).enumerate() {
        let reference = FinalReport::from_report(ticket as u64, from_batch, 0, 0);
        assert_eq!(
            from_serve.deterministic_json().render(),
            reference.deterministic_json().render(),
            "served job {} differs from the batch engine",
            from_serve.name
        );
    }
    let total: u64 = served.iter().filter_map(|r| r.cost).sum();
    assert_eq!(total, batch.total_winner_cost());
    assert_eq!(total, 81, "smoke-corpus cost fingerprint");
}

/// A cost target every incumbent meets stops the search server-side at
/// the first one: the final comes back degraded, carrying the best
/// incumbent streamed, and the stop counts as a cancellation.
#[test]
fn reached_max_cost_stops_the_search_early_with_the_best_incumbent() {
    let (addr, handle) = start(ServeConfig::default());
    let mut client = Client::connect(addr).unwrap();
    let outcome = client
        .solve(&long_job(13), "oracle", None, Some(u64::MAX), false)
        .unwrap();
    let report = outcome
        .final_report
        .expect("early-stopped job gets a final");
    assert!(report.degraded, "a reached target truncates the search");
    assert_eq!(report.outcome, "degraded");
    let best = outcome.incumbents.iter().map(|(cost, _)| *cost).min();
    assert!(best.is_some(), "the target is met by a streamed incumbent");
    assert_eq!(report.cost, best, "the final carries the best incumbent");

    client.shutdown_and_wait().unwrap();
    let drain = handle.join().unwrap();
    assert!(drain.stats.cancelled >= 1, "{:?}", drain.stats);
    assert_eq!(drain.stats.admitted, drain.stats.completed);
}

/// Forced shedding on a 1-worker daemon with queue capacity 1 and one job
/// per client: the per-client budget, an infeasible deadline and a full
/// queue each shed a submission over TCP with a jittered backoff hint,
/// and the daemon counts exactly those three sheds.
#[test]
fn all_three_shed_reasons_carry_a_backoff_hint() {
    let admission = AdmissionConfig {
        capacity: 1,
        per_client: 1,
        ..AdmissionConfig::default()
    };
    let backoff = SHED_BACKOFF_MS;
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        admission,
        ..ServeConfig::default()
    });
    let mut sheds = Vec::new();
    let mut record = |frame: Frame| match frame {
        Frame::Rejected {
            reason,
            retry_after_ms,
        } => sheds.push((reason, retry_after_ms)),
        other => panic!("expected a shed, got {other:?}"),
    };

    // The hog occupies the only worker with an unbounded job; a second
    // submission from the same client exceeds its budget of one.
    let mut hog = Client::connect(addr).unwrap();
    submit(&mut hog, "hog", long_job(17), None);
    let hog_ticket = match hog.recv().unwrap() {
        Frame::Admitted { job, .. } => job,
        other => panic!("expected the hog's admission, got {other:?}"),
    };
    // Its first incumbent shows it has left the queue for the worker.
    assert!(matches!(hog.recv().unwrap(), Frame::Incumbent { .. }));
    submit(&mut hog, "hog", quick_job("hog-encore", 31), None);
    record(recv_skipping_incumbents(&mut hog));

    // A second client fills the queue...
    let mut queued = Client::connect(addr).unwrap();
    submit(&mut queued, "queued", quick_job("queued-job", 32), None);
    assert!(matches!(queued.recv().unwrap(), Frame::Admitted { .. }));

    // ...so a zero deadline cannot be met behind it...
    let mut hasty = Client::connect(addr).unwrap();
    submit(&mut hasty, "hasty", quick_job("hasty-job", 33), Some(0));
    record(hasty.recv().unwrap());

    // ...and a fourth client finds the queue full.
    let mut late = Client::connect(addr).unwrap();
    submit(&mut late, "late", quick_job("late-job", 34), None);
    record(late.recv().unwrap());

    let reasons: Vec<&str> = sheds.iter().map(|(reason, _)| reason.as_str()).collect();
    assert_eq!(
        reasons,
        ["client-budget", "infeasible-deadline", "queue-full"]
    );
    for (reason, hint) in &sheds {
        assert!(
            (backoff..=2 * backoff).contains(hint),
            "{reason}: hint {hint} ms outside [{backoff}, {}]",
            2 * backoff
        );
    }

    // Unblock the worker: the hog degrades and the queued job solves.
    hog.cancel(hog_ticket).unwrap();
    match recv_skipping_incumbents(&mut hog) {
        Frame::Final(report) => assert!(report.degraded, "{report:?}"),
        other => panic!("expected the hog's final, got {other:?}"),
    }
    match recv_skipping_incumbents(&mut queued) {
        Frame::Final(report) => assert_eq!(report.outcome, "solved"),
        other => panic!("expected the queued final, got {other:?}"),
    }
    late.shutdown_and_wait().unwrap();
    let drain = handle.join().unwrap();
    assert_eq!(drain.stats.shed, 3, "{:?}", drain.stats);
    assert_eq!(drain.stats.admitted, drain.stats.completed);
}

/// A 130-byte submit frame declaring four billion inputs and no rows is
/// answered with an `error` frame instead of aborting the daemon on the
/// allocation, and the daemon serves the next job.
#[test]
fn hostile_relation_width_is_an_error_frame_and_the_daemon_keeps_serving() {
    let (addr, handle) = start(ServeConfig::default());
    let body = r#"{"type": "submit", "client": "hostile", "job": {"name": "huge", "relation": {"inputs": 4000000000, "outputs": 1, "rows": []}}}"#;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(&(body.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    match read_frame(&mut stream).unwrap() {
        Frame::Error { message } => assert!(message.contains("limit is 16"), "{message}"),
        other => panic!("expected an error frame, got {other:?}"),
    }

    let mut polite = Client::connect(addr).unwrap();
    let outcome = polite
        .solve(&quick_job("after-hostile", 5), "polite", None, None, false)
        .unwrap();
    assert_eq!(outcome.final_report.unwrap().outcome, "solved");
    let drain = {
        polite.shutdown_and_wait().unwrap();
        handle.join().unwrap()
    };
    assert_eq!(drain.stats.admitted, 1);
    assert_eq!(drain.stats.admitted, drain.stats.completed);
}

/// Every malformed row a `submit` frame can carry is answered with an
/// `error` frame naming the fault, and the daemon serves a polite job
/// after each one. The last two declare widths whose pair words would
/// overflow, next to non-empty rows, so the width check must run before
/// any row is packed.
#[test]
fn hostile_wire_rows_are_error_frames_and_the_daemon_keeps_serving() {
    let cases: [(&str, u64, u64, &str, &str); 9] = [
        ("bad-bit", 2, 1, r#"["02:0"]"#, "invalid bit `2`"),
        ("multibyte-bit", 2, 1, r#"["0é:0"]"#, "invalid bit `é`"),
        ("wide-input", 2, 1, r#"["000:0"]"#, "length 2, found 3"),
        ("wide-output", 2, 1, r#"["00:0,01"]"#, "length 1, found 2"),
        ("no-colon", 2, 1, r#"["000"]"#, "has no `:`"),
        (
            "not-a-string",
            2,
            1,
            r#"["00:0", 5]"#,
            "row must be a string",
        ),
        (
            "width-17",
            17,
            1,
            r#"["00000000000000000:0"]"#,
            "limit is 16",
        ),
        ("huge-inputs", 4_000_000_000, 1, r#"["0:0"]"#, "limit is 16"),
        (
            "huge-outputs",
            1,
            4_000_000_000,
            r#"["0:0"]"#,
            "limit is 16",
        ),
    ];
    let (addr, handle) = start(ServeConfig::default());
    let mut polite = Client::connect(addr).unwrap();
    for (name, inputs, outputs, rows, expected) in cases {
        let body = format!(
            r#"{{"type": "submit", "client": "hostile", "job": {{"name": "{name}", "relation": {{"inputs": {inputs}, "outputs": {outputs}, "rows": {rows}}}}}}}"#
        );
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
            .write_all(&(body.len() as u32).to_be_bytes())
            .unwrap();
        stream.write_all(body.as_bytes()).unwrap();
        match read_frame(&mut stream).unwrap() {
            Frame::Error { message } => {
                assert!(message.contains(expected), "{name}: {message}")
            }
            other => panic!("{name}: expected an error frame, got {other:?}"),
        }
        let outcome = polite
            .solve(&quick_job(name, 5), "polite", None, None, false)
            .unwrap();
        assert_eq!(outcome.final_report.unwrap().outcome, "solved", "{name}");
    }
    polite.shutdown_and_wait().unwrap();
    let drain = handle.join().unwrap();
    assert_eq!(drain.stats.admitted, cases.len() as u64);
    assert_eq!(drain.stats.admitted, drain.stats.completed);
}
