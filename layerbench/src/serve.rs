//! The serving workload: an in-process `brel-serve` daemon driven by
//! closed-loop clients that each wait for their `final` before submitting
//! the next relation.

use std::time::{Duration, Instant};

use brel_engine::JobSpec;
use brel_serve::{Client, DrainReport, FinalReport, ServeConfig, Server};

use crate::batch::Gate;
use crate::corpus::WORKERS;
use crate::stats::SplitMix64;

/// A booted daemon plus one connected client per closed loop.
#[derive(Debug)]
pub struct Daemon {
    server: Server,
    clients: Vec<Client>,
}

impl Daemon {
    /// Boots a daemon on an ephemeral local port and connects the clients.
    pub fn start() -> std::io::Result<Daemon> {
        let server = Server::start(ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        })?;
        let clients = (0..WORKERS)
            .map(|_| Client::connect(server.addr()))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Daemon { server, clients })
    }

    /// Disconnects the clients and drains the daemon, joining every
    /// thread it started.
    pub fn stop(self) -> DrainReport {
        drop(self.clients);
        self.server.shutdown()
    }
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Request {
    /// Corpus index of the submitted relation.
    pub job: usize,
    /// Submit to `final`, microseconds.
    pub final_us: f64,
    /// Submit to `admitted`, microseconds.
    pub admission_us: f64,
    /// Submit to the first `incumbent`, microseconds.
    pub first_incumbent_us: Option<f64>,
    pub incumbents: usize,
    /// `None` when the request was shed or the connection failed.
    pub report: Option<FinalReport>,
}

/// The closed loop's outcome.
#[derive(Debug)]
pub struct LoopRun {
    /// Requests per client, in submission order.
    pub requests: Vec<Vec<Request>>,
    pub wall_s: f64,
}

impl LoopRun {
    pub fn all(&self) -> impl Iterator<Item = &Request> {
        self.requests.iter().flatten()
    }

    pub fn finals(&self) -> usize {
        self.all().filter(|r| r.report.is_some()).count()
    }
}

/// Every client submits each corpus relation once, concurrently; warms the
/// daemon's sessions before anything is timed.
pub fn warm_up(daemon: &mut Daemon, jobs: &[JobSpec]) {
    drive(daemon, jobs, &[0; WORKERS], Duration::ZERO, jobs.len());
}

/// Runs the closed loop for `budget` in `segments` equal segments, calling
/// `between` after every segment but the last while no request is in
/// flight. Client `c` cycles through the corpus from a seeded offset,
/// each segment resuming where the previous one stopped.
pub fn closed_loop(
    daemon: &mut Daemon,
    jobs: &[JobSpec],
    rng: &mut SplitMix64,
    budget: Duration,
    segments: u32,
    mut between: impl FnMut(),
) -> LoopRun {
    let mut offsets: Vec<usize> = (0..WORKERS)
        .map(|_| (rng.next_u64() % jobs.len() as u64) as usize)
        .collect();
    let mut run = LoopRun {
        requests: vec![Vec::new(); WORKERS],
        wall_s: 0.0,
    };
    for segment in 0..segments.max(1) {
        if segment > 0 {
            between();
        }
        let part = drive(daemon, jobs, &offsets, budget / segments.max(1), 0);
        run.wall_s += part.wall_s;
        for ((all, offset), mut requests) in
            run.requests.iter_mut().zip(&mut offsets).zip(part.requests)
        {
            *offset = (*offset + requests.len()) % jobs.len();
            all.append(&mut requests);
        }
    }
    run
}

/// Each client submits from `offsets[c]` on until `budget` has elapsed and
/// it has made at least `min_requests` requests.
fn drive(
    daemon: &mut Daemon,
    jobs: &[JobSpec],
    offsets: &[usize],
    budget: Duration,
    min_requests: usize,
) -> LoopRun {
    let start = Instant::now();
    let requests = std::thread::scope(|scope| {
        let loops: Vec<_> = daemon
            .clients
            .iter_mut()
            .zip(offsets)
            .enumerate()
            .map(|(c, (client, &offset))| {
                scope.spawn(move || {
                    let id = format!("client-{c}");
                    let mut requests = Vec::new();
                    while requests.len() < min_requests || start.elapsed() < budget {
                        let job = (offset + requests.len()) % jobs.len();
                        let sent = Instant::now();
                        let outcome = client.solve(&jobs[job], &id, None, None, false);
                        let final_us = sent.elapsed().as_secs_f64() * 1e6;
                        let Ok(outcome) = outcome else {
                            requests.push(Request {
                                job,
                                final_us,
                                admission_us: final_us,
                                first_incumbent_us: None,
                                incumbents: 0,
                                report: None,
                            });
                            // The connection is unusable after an I/O error.
                            break;
                        };
                        requests.push(Request {
                            job,
                            final_us,
                            admission_us: outcome.admission_us as f64,
                            first_incumbent_us: outcome.first_incumbent_us.map(|us| us as f64),
                            incumbents: outcome.incumbents.len(),
                            report: outcome.final_report,
                        });
                    }
                    requests
                })
            })
            .collect();
        loops
            .into_iter()
            .map(|h| h.join().expect("client loops do not panic"))
            .collect()
    });
    LoopRun {
        requests,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

/// Gates every request against the reference costs, and every complete
/// corpus cycle of a client against the pinned fingerprint.
pub fn check(run: &LoopRun, jobs: &[JobSpec], gate: &mut Gate) {
    for client in &run.requests {
        let mut cycle_total = 0;
        let mut cycle_ok = true;
        for (i, request) in client.iter().enumerate() {
            let name = &jobs[request.job].name;
            let passed = match &request.report {
                Some(report) => gate.job(
                    request.job,
                    name,
                    &report.outcome,
                    report.degraded,
                    report.cost,
                ),
                None => gate.job(request.job, name, "shed or I/O error", false, None),
            };
            cycle_ok &= passed;
            cycle_total += request.report.as_ref().and_then(|r| r.cost).unwrap_or(0);
            if (i + 1) % jobs.len() == 0 {
                if cycle_ok {
                    gate.pass_total("served corpus cycle", cycle_total);
                }
                cycle_total = 0;
                cycle_ok = true;
            }
        }
    }
}
