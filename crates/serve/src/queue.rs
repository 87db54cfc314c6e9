//! Bounded admission with earliest-deadline-first dispatch.
//!
//! Admission is where the daemon defends itself: a bounded queue, a
//! per-client outstanding-job budget, and explicit load shedding with a
//! jittered backoff hint — a client that is told `retry_after_ms` will not
//! stampede back in lockstep with every other shed client. Admitted jobs
//! are dispatched earliest-deadline-first (ties broken by admission
//! order), so a tight-deadline job does not sit behind a batch of
//! unbounded ones. Deadlines the queue can already prove infeasible are
//! shed at the door instead of wasting a worker on a job that will only
//! time out.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use brel_core::CancelToken;
use brel_engine::JobSpec;

use crate::protocol::Frame;

/// Admission-control knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum number of queued (not yet running) jobs.
    pub capacity: usize,
    /// Maximum outstanding (queued + running) jobs per client id.
    pub per_client: usize,
    /// Rough per-job service estimate used for the deadline-feasibility
    /// check: a submission whose deadline is shorter than
    /// `queued * est_job_ms` is shed as infeasible.
    pub est_job_ms: u64,
    /// Base backoff hint for shed replies; the jittered hint is in
    /// `[backoff_ms, 2 * backoff_ms]`.
    pub backoff_ms: u64,
    /// Seed of the deterministic jitter sequence.
    pub jitter_seed: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: 64,
            per_client: 8,
            est_job_ms: 3,
            backoff_ms: 25,
            jitter_seed: 0x5eed_cafe,
        }
    }
}

/// The admission decision for one submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Queued; `queue_depth` is the depth right after insertion.
    Admitted {
        /// Queue depth after insertion.
        queue_depth: usize,
    },
    /// Shed with a structured reason and a jittered backoff hint.
    Shed {
        /// `draining`, `client-budget`, `infeasible-deadline` or
        /// `queue-full`.
        reason: &'static str,
        /// Do not retry sooner than this.
        retry_after_ms: u64,
    },
}

/// One admitted job waiting for (or holding) a worker.
#[derive(Debug)]
pub struct QueuedJob {
    /// Server-assigned ticket.
    pub ticket: u64,
    /// Submitting client id (admission budget key).
    pub client: String,
    /// Id of the connection the job arrived on (disconnect cleanup key).
    pub conn: u64,
    /// The job itself.
    pub spec: JobSpec,
    /// Early-stop cost target.
    pub max_cost: Option<u64>,
    /// Absolute deadline derived from the submit's `deadline_ms`.
    pub deadline: Option<Instant>,
    /// When the job was admitted (queue-wait accounting).
    pub enqueued: Instant,
    /// Cooperative cancel flag shared with the connection.
    pub cancel: CancelToken,
    /// The connection's outbound frame channel.
    pub reply: Sender<Frame>,
}

#[derive(Debug, Default)]
struct QueueInner {
    /// EDF order: key is (deadline in µs since queue start, admission
    /// sequence). Deadline-less jobs sort last via `u64::MAX`.
    queue: BTreeMap<(u64, u64), QueuedJob>,
    /// Outstanding (queued + running) jobs per client id.
    outstanding: HashMap<String, usize>,
    running: usize,
    next_seq: u64,
    sheds: u64,
    draining: bool,
}

/// The admission queue shared by connections (producers) and workers
/// (consumers).
#[derive(Debug)]
pub struct JobQueue {
    config: AdmissionConfig,
    start: Instant,
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

impl JobQueue {
    /// An empty queue with the given admission policy.
    pub fn new(config: AdmissionConfig) -> Self {
        JobQueue {
            config,
            start: Instant::now(),
            inner: Mutex::new(QueueInner::default()),
            ready: Condvar::new(),
        }
    }

    /// The admission policy.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// Decides admission for `job`. On admission the job is queued in EDF
    /// order and one waiting worker is woken; on shed the caller relays
    /// the reason and backoff hint to the client.
    ///
    /// `on_admit` runs with the queue lock still held, *before* any worker
    /// can pop the job — the caller's chance to register in-flight state
    /// and enqueue the `admitted` reply so it is ordered ahead of every
    /// frame the job's worker will stream. Keep it cheap and never call
    /// back into the queue from it.
    pub(crate) fn offer(
        &self,
        job: QueuedJob,
        deadline_ms: Option<u64>,
        on_admit: impl FnOnce(usize),
    ) -> Admission {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.draining {
            return self.shed(&mut inner, "draining");
        }
        let held = inner.outstanding.get(&job.client).copied().unwrap_or(0);
        if held >= self.config.per_client {
            return self.shed(&mut inner, "client-budget");
        }
        if let Some(deadline_ms) = deadline_ms {
            let est_wait_ms = inner.queue.len() as u64 * self.config.est_job_ms;
            if deadline_ms < est_wait_ms {
                return self.shed(&mut inner, "infeasible-deadline");
            }
        }
        if inner.queue.len() >= self.config.capacity {
            return self.shed(&mut inner, "queue-full");
        }

        let deadline_key = job.deadline.map_or(u64::MAX, |deadline| {
            deadline.saturating_duration_since(self.start).as_micros() as u64
        });
        let seq = inner.next_seq;
        inner.next_seq += 1;
        *inner.outstanding.entry(job.client.clone()).or_insert(0) += 1;
        inner.queue.insert((deadline_key, seq), job);
        let queue_depth = inner.queue.len();
        on_admit(queue_depth);
        drop(inner);
        self.ready.notify_one();
        Admission::Admitted { queue_depth }
    }

    fn shed(&self, inner: &mut QueueInner, reason: &'static str) -> Admission {
        inner.sheds += 1;
        let jitter = splitmix64(self.config.jitter_seed.wrapping_add(inner.sheds))
            % (self.config.backoff_ms + 1);
        Admission::Shed {
            reason,
            retry_after_ms: self.config.backoff_ms + jitter,
        }
    }

    /// Pops the earliest-deadline job, blocking up to `tick` per wait
    /// round. Returns `None` once the queue is draining and empty — the
    /// worker-exit signal.
    pub fn pop(&self, tick: Duration) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some((_, job)) = inner.queue.pop_first() {
                inner.running += 1;
                return Some(job);
            }
            if inner.draining {
                return None;
            }
            inner = self
                .ready
                .wait_timeout(inner, tick)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Marks one popped job finished, releasing its client-budget slot.
    pub fn finish(&self, client: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(held) = inner.outstanding.get_mut(client) {
            *held = held.saturating_sub(1);
            if *held == 0 {
                inner.outstanding.remove(client);
            }
        }
        inner.running = inner.running.saturating_sub(1);
        drop(inner);
        self.ready.notify_all();
    }

    /// Flips the queue into draining mode: every subsequent `offer`
    /// sheds, and workers exit once the backlog is gone.
    pub fn drain(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.draining = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Whether [`JobQueue::drain`] has been called.
    pub(crate) fn is_draining(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .draining
    }

    /// Current queued (not running) job count.
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .len()
    }

    /// Cancel tokens of every still-queued job (the drain path cancels
    /// them so queued work degrades to its quick seed instead of running
    /// a full exploration during shutdown).
    pub(crate) fn queued_cancel_tokens(&self) -> Vec<CancelToken> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .values()
            .map(|job| job.cancel.clone())
            .collect()
    }
}

/// SplitMix64, the workspace's standard tiny deterministic generator.
fn splitmix64(mut state: u64) -> u64 {
    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_engine::RelationSpec;
    use brel_relation::{BooleanRelation, RelationSpace};
    use std::sync::mpsc::channel;

    fn tiny_spec() -> RelationSpec {
        let space = RelationSpace::new(1, 1);
        let r = BooleanRelation::from_table(&space, "0:{0}\n1:{1}").unwrap();
        RelationSpec::from_relation(&r).unwrap()
    }

    fn job(ticket: u64, client: &str, deadline_ms: Option<u64>) -> QueuedJob {
        let now = Instant::now();
        QueuedJob {
            ticket,
            client: client.to_string(),
            conn: 0,
            spec: brel_engine::JobSpec::portfolio(format!("job{ticket}"), tiny_spec()),
            max_cost: None,
            deadline: deadline_ms.map(|ms| now + Duration::from_millis(ms)),
            enqueued: now,
            cancel: CancelToken::new(),
            reply: channel().0,
        }
    }

    fn offer(queue: &JobQueue, j: QueuedJob, deadline_ms: Option<u64>) -> Admission {
        queue.offer(j, deadline_ms, |_| {})
    }

    #[test]
    fn dispatch_is_earliest_deadline_first_with_fifo_ties() {
        let queue = JobQueue::new(AdmissionConfig::default());
        offer(&queue, job(0, "a", None), None);
        offer(&queue, job(1, "b", Some(500)), Some(500));
        offer(&queue, job(2, "c", Some(50)), Some(50));
        offer(&queue, job(3, "d", None), None);
        let order: Vec<u64> = (0..4)
            .map(|_| queue.pop(Duration::from_millis(1)).unwrap().ticket)
            .collect();
        // Tight deadline first, then the looser one, then deadline-less
        // jobs in admission order.
        assert_eq!(order, vec![2, 1, 0, 3]);
    }

    #[test]
    fn per_client_budget_and_capacity_shed_with_backoff_hints() {
        let queue = JobQueue::new(AdmissionConfig {
            capacity: 2,
            per_client: 1,
            ..AdmissionConfig::default()
        });
        assert!(matches!(
            offer(&queue, job(0, "a", None), None),
            Admission::Admitted { queue_depth: 1 }
        ));
        let Admission::Shed {
            reason,
            retry_after_ms,
        } = offer(&queue, job(1, "a", None), None)
        else {
            panic!("second job of the same client must shed");
        };
        assert_eq!(reason, "client-budget");
        let base = queue.config().backoff_ms;
        assert!((base..=2 * base).contains(&retry_after_ms));

        offer(&queue, job(2, "b", None), None);
        let Admission::Shed { reason, .. } = offer(&queue, job(3, "c", None), None) else {
            panic!("over-capacity job must shed");
        };
        assert_eq!(reason, "queue-full");

        // The budget frees when the job finishes (popped and completed).
        let popped = queue.pop(Duration::from_millis(1)).unwrap();
        queue.finish(&popped.client);
        assert!(matches!(
            offer(&queue, job(4, "a", None), None),
            Admission::Admitted { .. }
        ));
    }

    #[test]
    fn infeasible_deadlines_shed_before_capacity() {
        let queue = JobQueue::new(AdmissionConfig {
            capacity: 1,
            est_job_ms: 10,
            ..AdmissionConfig::default()
        });
        offer(&queue, job(0, "a", None), None);
        // One queued job ⇒ estimated wait 10 ms ⇒ a 5 ms deadline is
        // provably infeasible, and that verdict wins over `queue-full`.
        let Admission::Shed { reason, .. } = offer(&queue, job(1, "b", Some(5)), Some(5)) else {
            panic!("infeasible deadline must shed");
        };
        assert_eq!(reason, "infeasible-deadline");
    }

    #[test]
    fn draining_sheds_submissions_and_releases_workers() {
        let queue = JobQueue::new(AdmissionConfig::default());
        offer(&queue, job(0, "a", None), None);
        queue.drain();
        let Admission::Shed { reason, .. } = offer(&queue, job(1, "b", None), None) else {
            panic!("draining queue must shed");
        };
        assert_eq!(reason, "draining");
        // The backlog still drains...
        assert!(queue.pop(Duration::from_millis(1)).is_some());
        // ...and an empty draining queue releases the worker immediately.
        assert!(queue.pop(Duration::from_millis(1)).is_none());
    }

    #[test]
    fn jitter_spreads_backoff_hints() {
        let queue = JobQueue::new(AdmissionConfig {
            capacity: 0,
            ..AdmissionConfig::default()
        });
        let hints: Vec<u64> = (0..16)
            .map(|i| match offer(&queue, job(i, "a", None), None) {
                Admission::Shed { retry_after_ms, .. } => retry_after_ms,
                Admission::Admitted { .. } => panic!("capacity 0 admits nothing"),
            })
            .collect();
        let distinct: std::collections::HashSet<u64> = hints.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "jittered hints must not all collide: {hints:?}"
        );
    }
}
