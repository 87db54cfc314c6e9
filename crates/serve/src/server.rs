//! The daemon: TCP accept loop, per-connection frame pumps, and a warm
//! worker pool running admitted jobs under cooperative cancellation.
//!
//! Fault containment is layered:
//!
//! * every solve runs through [`brel_engine::Runner::run`] on the worker's
//!   own runner, so panics, quota trips and deadlines are caught at the
//!   attempt boundary and classified — a poisoned or faulted session is
//!   quarantined and rebuilt cold, never rehydrated into the next job;
//! * a cancelled or disconnected client flips the job's [`CancelToken`];
//!   the exploration stops at the next step boundary and the client (if
//!   still there) receives a `Final` carrying the best incumbent;
//! * connections are reaped when idle past `IDLE_TIMEOUT` (30 s), and a
//!   reader timeout can never desynchronize a frame mid-read
//!   ([`crate::protocol::FrameReader`] buffers partial bytes);
//! * shutdown is drain-style: stop admitting, cancel what is still
//!   queued (it degrades to its quick seed), let running jobs finish or
//!   degrade, flush every `Final`, answer the shutdown requester with one
//!   last `Stats` frame, then join every thread — the caller gets the
//!   final counters and the guarantee that no worker leaked.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use brel_core::CancelToken;
use brel_engine::{BatchReuse, EngineConfig, FaultPlan, JobControl, Runner};
use brel_obs::Category;

use crate::protocol::{Frame, FrameReader, StatsSnapshot, Submit};
use crate::queue::{Admission, AdmissionConfig, JobQueue, QueuedJob};

/// Poll tick for the accept loop, connection readers and idle worker
/// waits.
const POLL_TICK: Duration = Duration::from_millis(10);

/// Connections idle (no complete frame) longer than this are reaped.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks a free port (see
    /// [`Server::addr`]).
    pub addr: String,
    /// Worker threads, each owning one persistent [`Runner`].
    pub workers: usize,
    /// Admission policy.
    pub admission: AdmissionConfig,
    /// Optional seeded fault plan for chaos runs: injections fire into
    /// jobs whose names the plan targets, exactly as in `engine_batch
    /// --chaos`.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            admission: AdmissionConfig::default(),
            fault_plan: None,
        }
    }
}

/// Latency samples collected server-side, returned by a drain.
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// Final counters.
    pub stats: StatsSnapshot,
    /// Per-job queue wait, microseconds.
    pub queue_wait_us: Vec<u64>,
    /// Per-job submit-to-first-incumbent latency, microseconds.
    pub first_incumbent_us: Vec<u64>,
}

#[derive(Debug, Default)]
struct Counters {
    admitted: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    drained: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    warm_reuses: AtomicU64,
    cold_builds: AtomicU64,
    quarantines: AtomicU64,
}

#[derive(Debug, Default)]
struct Latencies {
    queue_wait_us: Vec<u64>,
    first_incumbent_us: Vec<u64>,
}

#[derive(Debug)]
struct Inflight {
    cancel: CancelToken,
    conn: u64,
}

struct Shared {
    config: ServeConfig,
    queue: JobQueue,
    counters: Counters,
    latencies: Mutex<Latencies>,
    /// Admitted-but-not-final jobs, keyed by ticket.
    inflight: Mutex<HashMap<u64, Inflight>>,
    /// Outbound channels of connections that requested shutdown; each
    /// gets the final `Stats` frame once the drain completes.
    shutdown_watchers: Mutex<Vec<Sender<Frame>>>,
    next_ticket: AtomicU64,
    next_conn: AtomicU64,
    stopping: AtomicBool,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("queue_depth", &self.queue.depth())
            .finish_non_exhaustive()
    }
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            cancelled: self.counters.cancelled.load(Ordering::Relaxed),
            drained: self.counters.drained.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            warm_reuses: self.counters.warm_reuses.load(Ordering::Relaxed),
            cold_builds: self.counters.cold_builds.load(Ordering::Relaxed),
            quarantines: self.counters.quarantines.load(Ordering::Relaxed),
            queue_depth: self.queue.depth() as u64,
            inflight: self
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len() as u64,
            draining: self.queue.is_draining(),
        }
    }

    /// Begins the drain: no new admissions, queued jobs are cancelled (so
    /// they degrade to their quick seed instead of exploring during
    /// shutdown), running jobs stop at their next step boundary.
    fn begin_drain(&self) {
        self.queue.drain();
        for token in self.queue.queued_cancel_tokens() {
            token.cancel();
        }
        for entry in self
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            entry.cancel.cancel();
        }
    }
}

/// A running daemon. Dropping it without [`Server::shutdown`] aborts the
/// threads unceremoniously; call `shutdown` for the drain contract.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the daemon: one accept thread, `config.workers`
    /// solver threads.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.admission),
            config,
            counters: Counters::default(),
            latencies: Mutex::new(Latencies::default()),
            inflight: Mutex::new(HashMap::new()),
            shutdown_watchers: Mutex::new(Vec::new()),
            next_ticket: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            conn_threads: Mutex::new(Vec::new()),
        });

        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&accept_shared, &listener))?;

        let worker_threads = (0..workers)
            .map(|worker_id| {
                let worker_shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{worker_id}"))
                    .spawn(move || worker_loop(&worker_shared, worker_id))
            })
            .collect::<io::Result<Vec<_>>>()?;

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            worker_threads,
        })
    }

    /// The bound address (with the actual port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Blocks until a client requests shutdown, then drains and returns.
    pub fn run_until_shutdown(self) -> DrainReport {
        while !self.shared.queue.is_draining() {
            std::thread::sleep(POLL_TICK);
        }
        self.shutdown()
    }

    /// Drain-style graceful shutdown: stop admitting, finish or degrade
    /// every admitted job, flush the `Final` frames, answer shutdown
    /// requesters with the final `Stats`, join every thread.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.begin_drain();
        // Workers exit once the backlog is gone; joining them proves every
        // admitted job produced (and flushed) its Final frame.
        for worker in self.worker_threads.drain(..) {
            let _ = worker.join();
        }
        let stats = self.shared.snapshot();
        let watchers = std::mem::take(
            &mut *self
                .shared
                .shutdown_watchers
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for watcher in watchers {
            let _ = watcher.send(Frame::Stats(stats.clone()));
        }
        // Now tear down the I/O layer: readers notice `stopping`, drop
        // their writer channels, and the writer threads flush out.
        self.shared.stopping.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        let conns = std::mem::take(
            &mut *self
                .shared
                .conn_threads
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for conn in conns {
            let _ = conn.join();
        }
        let latencies = std::mem::take(
            &mut *self
                .shared
                .latencies
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        DrainReport {
            stats,
            queue_wait_us: latencies.queue_wait_us,
            first_incumbent_us: latencies.first_incumbent_us,
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.stopping.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                brel_obs::event(Category::Serve, "accept");
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let conn_shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("serve-conn-{conn_id}"))
                    .spawn(move || connection_loop(&conn_shared, conn_id, stream));
                match handle {
                    Ok(handle) => shared
                        .conn_threads
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(handle),
                    Err(_) => brel_obs::count(Category::Serve, "spawn_failed", 1),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                reap_finished_connections(shared);
                std::thread::sleep(POLL_TICK);
            }
            Err(_) => std::thread::sleep(POLL_TICK),
        }
    }
}

/// Joins connection threads that already exited, so a long-running daemon
/// does not accumulate dead handles.
fn reap_finished_connections(shared: &Shared) {
    let mut conns = shared
        .conn_threads
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let mut live = Vec::with_capacity(conns.len());
    for handle in conns.drain(..) {
        if handle.is_finished() {
            let _ = handle.join();
        } else {
            live.push(handle);
        }
    }
    *conns = live;
}

/// Reader side of one connection; spawns the paired writer thread.
fn connection_loop(shared: &Arc<Shared>, conn_id: u64, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let writer_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let (reply, outbound) = channel::<Frame>();
    let writer = std::thread::Builder::new()
        .name(format!("serve-write-{conn_id}"))
        .spawn(move || {
            let mut stream = writer_stream;
            for frame in outbound {
                if crate::protocol::write_frame(&mut stream, &frame).is_err() {
                    break;
                }
            }
        });

    let mut reader = FrameReader::new(stream);
    let mut last_activity = Instant::now();
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        match reader.poll() {
            Ok(Some(frame)) => {
                last_activity = Instant::now();
                handle_frame(shared, conn_id, &reply, frame);
            }
            Ok(None) => {
                if last_activity.elapsed() > IDLE_TIMEOUT {
                    brel_obs::count(Category::Serve, "idle_reaped", 1);
                    break;
                }
            }
            Err(e) => {
                if e.kind() == io::ErrorKind::InvalidData {
                    let _ = reply.send(Frame::Error {
                        message: e.to_string(),
                    });
                }
                break;
            }
        }
    }

    // Disconnect containment: cancel every job this connection still has
    // in flight, so its worker frees within one step boundary instead of
    // solving for a client that is gone.
    let mut disconnect_cancels = 0u64;
    for entry in shared
        .inflight
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .values()
    {
        if entry.conn == conn_id && !entry.cancel.is_cancelled() {
            entry.cancel.cancel();
            disconnect_cancels += 1;
        }
    }
    if disconnect_cancels > 0 {
        shared
            .counters
            .cancelled
            .fetch_add(disconnect_cancels, Ordering::Relaxed);
        brel_obs::count(Category::Serve, "disconnect_cancelled", disconnect_cancels);
    }
    drop(reply);
    if let Ok(writer) = writer {
        let _ = writer.join();
    }
}

fn handle_frame(shared: &Arc<Shared>, conn_id: u64, reply: &Sender<Frame>, frame: Frame) {
    match frame {
        Frame::Submit(submit) => handle_submit(shared, conn_id, reply, submit),
        Frame::Cancel { job } => {
            let inflight = shared
                .inflight
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some(entry) = inflight.get(&job) {
                if !entry.cancel.is_cancelled() {
                    entry.cancel.cancel();
                    shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
                    brel_obs::count(Category::Serve, "cancelled", 1);
                }
            }
            // Cancelling an unknown/finished ticket is a harmless no-op:
            // the race against a concurrent Final is inherent.
        }
        Frame::StatsRequest => {
            let _ = reply.send(Frame::Stats(shared.snapshot()));
        }
        Frame::Shutdown => {
            shared
                .shutdown_watchers
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(reply.clone());
            shared.begin_drain();
            brel_obs::event(Category::Serve, "shutdown_requested");
        }
        // Server-to-client frames arriving at the server are a protocol
        // violation worth reporting but not a reason to kill the daemon.
        other => {
            let _ = reply.send(Frame::Error {
                message: format!("unexpected client frame: {other:?}"),
            });
        }
    }
}

fn handle_submit(shared: &Arc<Shared>, conn_id: u64, reply: &Sender<Frame>, submit: Submit) {
    let mut span = brel_obs::span(Category::Serve, "admit");
    let ticket = shared.next_ticket.fetch_add(1, Ordering::Relaxed);
    let cancel = CancelToken::new();
    let now = Instant::now();
    let job = QueuedJob {
        ticket,
        client: submit.client,
        conn: conn_id,
        spec: submit.job,
        max_cost: submit.max_cost,
        deadline: submit.deadline_ms.map(|ms| now + Duration::from_millis(ms)),
        enqueued: now,
        cancel: cancel.clone(),
        reply: reply.clone(),
    };
    // The in-flight registration and the `admitted` reply happen inside
    // `on_admit`, while the queue lock still shields the job from the
    // workers: the client is guaranteed to see `admitted` before any
    // `incumbent`, and a cancel that races the admission finds the token.
    let on_admit = |queue_depth: usize| {
        shared
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                ticket,
                Inflight {
                    cancel: cancel.clone(),
                    conn: conn_id,
                },
            );
        shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
        let _ = reply.send(Frame::Admitted {
            job: ticket,
            queue_depth: queue_depth as u64,
        });
    };
    match shared.queue.offer(job, submit.deadline_ms, on_admit) {
        Admission::Admitted { queue_depth } => {
            span.arg("admitted", 1)
                .arg("queue_depth", queue_depth as u64);
        }
        Admission::Shed {
            reason,
            retry_after_ms,
        } => {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            brel_obs::count(Category::Serve, "shed", 1);
            span.arg("admitted", 0);
            let _ = reply.send(Frame::Rejected {
                reason: reason.to_string(),
                retry_after_ms,
            });
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, worker_id: usize) {
    let _track = brel_obs::set_track(&format!("serve-worker-{worker_id}"));
    // One warm runner per serve worker, reused across jobs exactly like a
    // batch-engine worker's.
    let config = EngineConfig {
        num_workers: 1,
        wide: None,
        reuse: true,
    };
    let mut runner = Runner::new(&config, shared.config.fault_plan.clone());
    let mut last_counts = BatchReuse::default();
    while let Some(mut job) = shared.queue.pop(POLL_TICK) {
        let draining = shared.queue.is_draining();
        let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
        brel_obs::event!(Category::Serve, "queue_wait", "us" => queue_wait_us);

        // Install the remaining wall-clock budget as the job's governor
        // deadline: a runaway solve aborts through the kernel's deadline
        // path even if it never reaches a cooperative checkpoint.
        if let Some(deadline) = job.deadline {
            let remaining_ms = (deadline
                .saturating_duration_since(Instant::now())
                .as_millis() as u64)
                .max(1);
            job.spec.fault.deadline_ms = Some(
                job.spec
                    .fault
                    .deadline_ms
                    .map_or(remaining_ms, |own| own.min(remaining_ms)),
            );
        }

        // The streaming side: every incumbent (seed included) goes out as
        // an `Incumbent` frame; the first one records the anytime latency;
        // reaching `max_cost` flips the cancel token (early stop).
        let stream_reply = Mutex::new(job.reply.clone());
        let ticket = job.ticket;
        let submitted = job.enqueued;
        let stream_shared = shared.clone();
        let early_stop = job.cancel.clone();
        let max_cost = job.max_cost;
        let first_seen = AtomicBool::new(false);
        let control = JobControl::new()
            .with_cancel(job.cancel.clone())
            .on_incumbent(move |cost, explored| {
                brel_obs::count(Category::Serve, "incumbent", 1);
                if !first_seen.swap(true, Ordering::Relaxed) {
                    stream_shared
                        .latencies
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .first_incumbent_us
                        .push(submitted.elapsed().as_micros() as u64);
                }
                let _ = stream_reply
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .send(Frame::Incumbent {
                        job: ticket,
                        cost,
                        explored: explored as u64,
                    });
                if max_cost.is_some_and(|target| cost <= target) && !early_stop.is_cancelled() {
                    // A reached cost target is a server-side cancellation:
                    // counted like a client cancel so the stats tell the
                    // whole truncation story.
                    early_stop.cancel();
                    stream_shared
                        .counters
                        .cancelled
                        .fetch_add(1, Ordering::Relaxed);
                    brel_obs::count(Category::Serve, "cost_target_stop", 1);
                }
            });

        let solve_start = Instant::now();
        let report = {
            let mut span = brel_obs::span(Category::Serve, "solve");
            span.arg("ticket", ticket);
            runner.run(ticket as usize, &job.spec, Some(&control))
        };
        let solve_us = solve_start.elapsed().as_micros() as u64;

        // Fold this worker's warm-pool movement into the shared counters.
        let counts = runner.counts();
        shared.counters.warm_reuses.fetch_add(
            counts.warm_reuses - last_counts.warm_reuses,
            Ordering::Relaxed,
        );
        shared.counters.cold_builds.fetch_add(
            counts.cold_builds - last_counts.cold_builds,
            Ordering::Relaxed,
        );
        shared.counters.quarantines.fetch_add(
            counts.quarantines - last_counts.quarantines,
            Ordering::Relaxed,
        );
        last_counts = counts;

        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        if report.winning().is_some_and(|w| w.degraded) {
            shared.counters.degraded.fetch_add(1, Ordering::Relaxed);
        }
        if draining {
            shared.counters.drained.fetch_add(1, Ordering::Relaxed);
        }
        shared
            .latencies
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue_wait_us
            .push(queue_wait_us);

        let final_frame = Frame::Final(crate::protocol::FinalReport::from_report(
            ticket,
            &report,
            queue_wait_us,
            solve_us,
        ));
        // Retire the job *before* the final frame goes out: a client that
        // reads the final and disconnects immediately must not find a
        // stale in-flight entry still counted as a disconnect-cancel.
        shared
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&ticket);
        // A disconnected client makes this send fail; the job was still
        // accounted above, which is what the drain gates check.
        let _ = job.reply.send(final_frame);
        shared.queue.finish(&job.client);
    }
}
