//! The wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Every frame is a 4-byte big-endian length followed by that many bytes
//! of UTF-8 JSON — one object with a `"type"` tag. Client-to-server
//! frames are `submit`, `cancel`, `stats` and `shutdown`; server-to-client
//! frames are `admitted`, `rejected`, `incumbent` (streamed anytime
//! results), `final`, `stats` and `error`. The codec is total in both
//! directions: [`Frame::to_json`] and `Frame::from_json` round-trip
//! every representable frame, and malformed input surfaces as a
//! structured error at the protocol boundary instead of a panic inside
//! the daemon.

use std::io::{self, Read, Write};

use brel_engine::{
    BackendKind, CostSpec, FaultPolicy, JobBudget, JobReport, JobSpec, Json, RelationSpec,
    SearchStrategy,
};
use brel_relation::{vertex, RelationError};

use crate::json;

/// Ceiling on a single frame body. A length prefix beyond this is treated
/// as a protocol error (it is far above any real `JobSpec`, and it keeps a
/// corrupt or hostile prefix from allocating gigabytes).
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: submit a job.
    Submit(Submit),
    /// Client → server: cooperatively cancel an admitted job. The job
    /// still produces a `Final` frame carrying its best incumbent.
    Cancel {
        /// The server-assigned job ticket.
        job: u64,
    },
    /// Client → server: request a [`StatsSnapshot`].
    StatsRequest,
    /// Client → server: begin a drain shutdown. The server stops
    /// admitting, finishes or degrades every in-flight job, flushes the
    /// `Final` frames, then answers with one last `Stats` frame.
    Shutdown,
    /// Server → client: the job was admitted.
    Admitted {
        /// The server-assigned job ticket (used by `cancel`, `incumbent`
        /// and `final`).
        job: u64,
        /// Queue depth right after admission.
        queue_depth: u64,
    },
    /// Server → client: the job was shed at admission.
    Rejected {
        /// Why: `draining`, `client-budget`, `infeasible-deadline` or
        /// `queue-full`.
        reason: String,
        /// Jittered backoff hint; clients should not retry sooner.
        retry_after_ms: u64,
    },
    /// Server → client: a streamed anytime result — the quick-solver seed
    /// or a BREL incumbent improvement.
    Incumbent {
        /// The job ticket.
        job: u64,
        /// Cost of the incumbent under the job's cost function.
        cost: u64,
        /// Expansions explored when the incumbent was found (0 = seed).
        explored: u64,
    },
    /// Server → client: the job finished (solved, degraded or faulted).
    Final(FinalReport),
    /// Server → client: current counters.
    Stats(StatsSnapshot),
    /// Server → client: a request-level error (e.g. malformed submit).
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// The payload of a `submit` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Submit {
    /// Client identity for per-client admission budgets.
    pub client: String,
    /// The job to solve.
    pub job: JobSpec,
    /// Soft deadline: admission rejects infeasible deadlines, and the
    /// remaining time is installed as the job's wall-clock deadline (the
    /// kernel governor aborts a runaway solve past it).
    pub deadline_ms: Option<u64>,
    /// Early-stop target: the server cancels the exploration as soon as a
    /// streamed incumbent costs this much or less.
    pub max_cost: Option<u64>,
}

/// The payload of a `final` frame: the deterministic projection of a
/// [`JobReport`] plus per-job service timings.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalReport {
    /// The job ticket.
    pub job: u64,
    /// Job name from the spec.
    pub name: String,
    /// Outcome name (`solved`, `degraded`, `timed-out`, `quota-exceeded`,
    /// `panicked`) or `failed` when the job errored structurally.
    pub outcome: String,
    /// Whether the winning solution is a degraded result.
    pub degraded: bool,
    /// Winning backend name, when a winner exists.
    pub backend: Option<String>,
    /// Winning cost, when a winner exists.
    pub cost: Option<u64>,
    /// Winning solution's cube count.
    pub cubes: Option<u64>,
    /// Winning solution's literal count.
    pub literals: Option<u64>,
    /// Winning attempt's exploration count.
    pub explored: Option<u64>,
    /// Deterministic fault/truncation description, if any.
    pub fault: Option<String>,
    /// Structural failure message, if the job produced no solution.
    pub error: Option<String>,
    /// Time the job spent queued, in microseconds (timing — excluded
    /// from the deterministic projection).
    pub queue_wait_us: u64,
    /// Time the job spent solving, in microseconds (timing).
    pub solve_us: u64,
}

impl FinalReport {
    /// Projects an engine [`JobReport`] into the wire shape. Both the
    /// daemon and the serial-replay gate build finals through this one
    /// function, so "byte-identical to `engine_batch`" is a comparison of
    /// the same projection applied to both paths.
    pub fn from_report(job: u64, report: &JobReport, queue_wait_us: u64, solve_us: u64) -> Self {
        let winning = report.winning();
        FinalReport {
            job,
            name: report.name.clone(),
            outcome: report
                .outcome
                .map_or("failed", |outcome| outcome.name())
                .to_string(),
            degraded: winning.is_some_and(|w| w.degraded),
            backend: winning.map(|w| w.backend.name().to_string()),
            cost: winning.map(|w| w.cost),
            cubes: winning.map(|w| w.cubes as u64),
            literals: winning.map(|w| w.literals as u64),
            explored: winning.map(|w| w.explored as u64),
            fault: report.fault.clone(),
            error: report.error.clone(),
            queue_wait_us,
            solve_us,
        }
    }

    /// The timing-free projection used by determinism gates: everything
    /// except `job`, `queue_wait_us` and `solve_us`.
    pub fn deterministic_json(&self) -> Json {
        Json::object(vec![
            ("name", Json::str(&self.name)),
            ("outcome", Json::str(&self.outcome)),
            ("degraded", Json::Bool(self.degraded)),
            ("backend", opt_str(&self.backend)),
            ("cost", opt_uint(self.cost)),
            ("cubes", opt_uint(self.cubes)),
            ("literals", opt_uint(self.literals)),
            ("explored", opt_uint(self.explored)),
            ("fault", opt_str(&self.fault)),
            ("error", opt_str(&self.error)),
        ])
    }
}

/// One snapshot of the daemon's counters, carried by `stats` frames and
/// returned from drains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs admitted into the queue.
    pub admitted: u64,
    /// Jobs shed at admission.
    pub shed: u64,
    /// Cancellations observed (explicit `cancel` frames on live jobs plus
    /// disconnect- and drain-driven cancels).
    pub cancelled: u64,
    /// Jobs whose `Final` was emitted after a drain began.
    pub drained: u64,
    /// Jobs that reached a `Final` frame.
    pub completed: u64,
    /// Completed jobs whose winner was a degraded result.
    pub degraded: u64,
    /// Warm-session rehydrations that reused a live manager.
    pub warm_reuses: u64,
    /// Cold session (re)builds.
    pub cold_builds: u64,
    /// Sessions quarantined after a fault (every one is rebuilt cold
    /// before its next job; none leak past a drain unreported).
    pub quarantines: u64,
    /// Jobs currently queued.
    pub queue_depth: u64,
    /// Jobs admitted but not yet final.
    pub inflight: u64,
    /// Whether a drain is in progress (or completed).
    pub draining: bool,
}

impl StatsSnapshot {
    /// The `(name, value)` pairs for
    /// [`brel_obs::MetricsRegistry::absorb`] under the `serve.` prefix.
    pub fn metrics(&self) -> [(&'static str, u64); 9] {
        [
            ("admitted", self.admitted),
            ("shed", self.shed),
            ("cancelled", self.cancelled),
            ("drained", self.drained),
            ("completed", self.completed),
            ("degraded", self.degraded),
            ("quarantines", self.quarantines),
            ("queue_depth", self.queue_depth),
            ("inflight", self.inflight),
        ]
    }
}

fn opt_uint(value: Option<u64>) -> Json {
    value.map_or(Json::Null, Json::UInt)
}

fn opt_str(value: &Option<String>) -> Json {
    value.as_deref().map_or(Json::Null, Json::str)
}

impl Frame {
    /// Serializes the frame to its JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            Frame::Submit(submit) => {
                let mut fields = vec![
                    ("type", Json::str("submit")),
                    ("client", Json::str(&submit.client)),
                    ("job", job_to_json(&submit.job)),
                    ("deadline_ms", opt_uint(submit.deadline_ms)),
                    ("max_cost", opt_uint(submit.max_cost)),
                ];
                fields.retain(|(_, v)| *v != Json::Null);
                Json::object(fields)
            }
            Frame::Cancel { job } => Json::object(vec![
                ("type", Json::str("cancel")),
                ("job", Json::UInt(*job)),
            ]),
            Frame::StatsRequest => Json::object(vec![("type", Json::str("stats"))]),
            Frame::Shutdown => Json::object(vec![("type", Json::str("shutdown"))]),
            Frame::Admitted { job, queue_depth } => Json::object(vec![
                ("type", Json::str("admitted")),
                ("job", Json::UInt(*job)),
                ("queue_depth", Json::UInt(*queue_depth)),
            ]),
            Frame::Rejected {
                reason,
                retry_after_ms,
            } => Json::object(vec![
                ("type", Json::str("rejected")),
                ("reason", Json::str(reason)),
                ("retry_after_ms", Json::UInt(*retry_after_ms)),
            ]),
            Frame::Incumbent {
                job,
                cost,
                explored,
            } => Json::object(vec![
                ("type", Json::str("incumbent")),
                ("job", Json::UInt(*job)),
                ("cost", Json::UInt(*cost)),
                ("explored", Json::UInt(*explored)),
            ]),
            Frame::Final(report) => Json::object(vec![
                ("type", Json::str("final")),
                ("job", Json::UInt(report.job)),
                ("name", Json::str(&report.name)),
                ("outcome", Json::str(&report.outcome)),
                ("degraded", Json::Bool(report.degraded)),
                ("backend", opt_str(&report.backend)),
                ("cost", opt_uint(report.cost)),
                ("cubes", opt_uint(report.cubes)),
                ("literals", opt_uint(report.literals)),
                ("explored", opt_uint(report.explored)),
                ("fault", opt_str(&report.fault)),
                ("error", opt_str(&report.error)),
                ("queue_wait_us", Json::UInt(report.queue_wait_us)),
                ("solve_us", Json::UInt(report.solve_us)),
            ]),
            Frame::Stats(stats) => {
                let mut fields = vec![("type", Json::str("stats"))];
                let metric_pairs = stats.metrics();
                fields.extend(metric_pairs.iter().map(|&(name, value)| {
                    (name, Json::UInt(value)) // counters
                }));
                fields.push(("warm_reuses", Json::UInt(stats.warm_reuses)));
                fields.push(("cold_builds", Json::UInt(stats.cold_builds)));
                fields.push(("draining", Json::Bool(stats.draining)));
                Json::object(fields)
            }
            Frame::Error { message } => Json::object(vec![
                ("type", Json::str("error")),
                ("message", Json::str(message)),
            ]),
        }
    }

    /// Parses a frame from its JSON object.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem.
    pub(crate) fn from_json(value: &Json) -> Result<Frame, String> {
        let tag = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or("frame has no `type` tag")?;
        match tag {
            "submit" => Ok(Frame::Submit(Submit {
                client: req_str(value, "client")?,
                job: job_from_json(value.get("job").ok_or("submit has no `job`")?)?,
                deadline_ms: opt_u64(value, "deadline_ms")?,
                max_cost: opt_u64(value, "max_cost")?,
            })),
            "cancel" => Ok(Frame::Cancel {
                job: req_u64(value, "job")?,
            }),
            "shutdown" => Ok(Frame::Shutdown),
            "admitted" => Ok(Frame::Admitted {
                job: req_u64(value, "job")?,
                queue_depth: req_u64(value, "queue_depth")?,
            }),
            "rejected" => Ok(Frame::Rejected {
                reason: req_str(value, "reason")?,
                retry_after_ms: req_u64(value, "retry_after_ms")?,
            }),
            "incumbent" => Ok(Frame::Incumbent {
                job: req_u64(value, "job")?,
                cost: req_u64(value, "cost")?,
                explored: req_u64(value, "explored")?,
            }),
            "final" => Ok(Frame::Final(FinalReport {
                job: req_u64(value, "job")?,
                name: req_str(value, "name")?,
                outcome: req_str(value, "outcome")?,
                degraded: value
                    .get("degraded")
                    .and_then(Json::as_bool)
                    .ok_or("final has no `degraded`")?,
                backend: opt_string(value, "backend"),
                cost: opt_u64(value, "cost")?,
                cubes: opt_u64(value, "cubes")?,
                literals: opt_u64(value, "literals")?,
                explored: opt_u64(value, "explored")?,
                fault: opt_string(value, "fault"),
                error: opt_string(value, "error"),
                queue_wait_us: req_u64(value, "queue_wait_us")?,
                solve_us: req_u64(value, "solve_us")?,
            })),
            // A bare `{"type":"stats"}` is the request; any counter field
            // marks the reply.
            "stats" => {
                if value.get("admitted").is_none() {
                    return Ok(Frame::StatsRequest);
                }
                Ok(Frame::Stats(StatsSnapshot {
                    admitted: req_u64(value, "admitted")?,
                    shed: req_u64(value, "shed")?,
                    cancelled: req_u64(value, "cancelled")?,
                    drained: req_u64(value, "drained")?,
                    completed: req_u64(value, "completed")?,
                    degraded: req_u64(value, "degraded")?,
                    warm_reuses: req_u64(value, "warm_reuses")?,
                    cold_builds: req_u64(value, "cold_builds")?,
                    quarantines: req_u64(value, "quarantines")?,
                    queue_depth: req_u64(value, "queue_depth")?,
                    inflight: req_u64(value, "inflight")?,
                    draining: value
                        .get("draining")
                        .and_then(Json::as_bool)
                        .unwrap_or(false),
                }))
            }
            "error" => Ok(Frame::Error {
                message: req_str(value, "message")?,
            }),
            other => Err(format!("unknown frame type `{other}`")),
        }
    }
}

fn req_str(value: &Json, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn req_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

fn opt_u64(value: &Json, key: &str) -> Result<Option<u64>, String> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => field
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be an integer")),
    }
}

fn opt_bool(value: &Json, key: &str) -> Result<Option<bool>, String> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(field) => field
            .as_bool()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a boolean")),
    }
}

fn opt_string(value: &Json, key: &str) -> Option<String> {
    value.get(key).and_then(Json::as_str).map(str::to_string)
}

/// Serializes a [`JobSpec`] to its wire object. Relation rows travel as
/// compact `input:image,image` bitstrings (e.g. `"10:00,11"`), the same
/// 0/1 convention the table parser uses: one string per input vertex,
/// rendered straight from the spec's sorted pair words.
fn job_to_json(job: &JobSpec) -> Json {
    let (num_inputs, num_outputs) = (job.relation.num_inputs(), job.relation.num_outputs());
    let x_of = |w: &u32| w >> num_outputs;
    let rows = job
        .relation
        .words()
        .chunk_by(|a, b| x_of(a) == x_of(b))
        .map(|run| {
            let mut text = String::with_capacity(num_inputs + run.len() * (num_outputs + 1));
            vertex::write(&mut text, x_of(&run[0]), num_inputs);
            text.push(':');
            for (i, &w) in run.iter().enumerate() {
                if i > 0 {
                    text.push(',');
                }
                vertex::write(&mut text, w, num_outputs);
            }
            Json::Str(text)
        })
        .collect();
    let relation = Json::object(vec![
        ("inputs", Json::UInt(num_inputs as u64)),
        ("outputs", Json::UInt(num_outputs as u64)),
        ("rows", Json::Array(rows)),
    ]);
    Json::object(vec![
        ("name", Json::str(&job.name)),
        ("relation", relation),
        (
            "backends",
            Json::Array(job.backends.iter().map(|b| Json::str(b.name())).collect()),
        ),
        ("cost", Json::str(job.cost.name())),
        (
            "budget",
            Json::object(vec![
                (
                    "max_explored",
                    job.budget
                        .max_explored
                        .map_or(Json::Null, |n| Json::UInt(n as u64)),
                ),
                (
                    "fifo_capacity",
                    job.budget
                        .fifo_capacity
                        .map_or(Json::Null, |n| Json::UInt(n as u64)),
                ),
                (
                    "gyocro_max_passes",
                    Json::UInt(job.budget.gyocro_max_passes as u64),
                ),
            ]),
        ),
        ("strategy", Json::str(job.strategy.to_string())),
        (
            "fault",
            Json::object(vec![
                ("deadline_ms", opt_uint(job.fault.deadline_ms)),
                ("max_live_nodes", opt_uint(job.fault.max_live_nodes)),
                (
                    "step_deadline",
                    job.fault
                        .step_deadline
                        .map_or(Json::Null, |n| Json::UInt(n as u64)),
                ),
                ("retries", Json::UInt(job.fault.retries as u64)),
                ("fallback", Json::Bool(job.fault.fallback)),
            ]),
        ),
    ])
}

/// Parses a [`JobSpec`] from its wire object.
///
/// # Errors
///
/// Returns a description of the first structural problem (missing field,
/// bad backend/strategy/cost name, or row arity mismatch).
fn job_from_json(value: &Json) -> Result<JobSpec, String> {
    let name = req_str(value, "name")?;
    let relation = value.get("relation").ok_or("job has no `relation`")?;
    let num_inputs = req_u64(relation, "inputs")? as usize;
    let num_outputs = req_u64(relation, "outputs")? as usize;
    // The widths bound every shift below.
    RelationSpec::check_widths(num_inputs, num_outputs)
        .map_err(|e| format!("bad relation: {e}"))?;
    let mut words = Vec::new();
    for row in relation
        .get("rows")
        .and_then(Json::as_array)
        .ok_or("relation has no `rows` array")?
    {
        let text = row.as_str().ok_or("row must be a string")?;
        push_row_words(&mut words, text, num_inputs, num_outputs)?;
    }
    let relation = RelationSpec::from_packed(num_inputs, num_outputs, words)
        .map_err(|e| format!("bad relation: {e}"))?;

    let backends: Vec<BackendKind> = match value.get("backends").and_then(Json::as_array) {
        None => BackendKind::all().to_vec(),
        Some(names) => names
            .iter()
            .map(|n| {
                n.as_str()
                    .and_then(backend_from_name)
                    .ok_or_else(|| format!("unknown backend `{}`", n.render()))
            })
            .collect::<Result<_, _>>()?,
    };
    if backends.is_empty() {
        return Err("job has an empty backend list".to_string());
    }

    let cost = match value.get("cost").and_then(Json::as_str) {
        None => CostSpec::default(),
        Some(name) => cost_from_name(name).ok_or_else(|| format!("unknown cost `{name}`"))?,
    };
    let strategy = match value.get("strategy").and_then(Json::as_str) {
        None => SearchStrategy::default(),
        Some(name) => {
            SearchStrategy::parse(name).ok_or_else(|| format!("unknown strategy `{name}`"))?
        }
    };
    let budget = match value.get("budget") {
        None => JobBudget::default(),
        Some(budget) => JobBudget {
            max_explored: opt_u64(budget, "max_explored")?.map(|n| n as usize),
            fifo_capacity: opt_u64(budget, "fifo_capacity")?.map(|n| n as usize),
            gyocro_max_passes: opt_u64(budget, "gyocro_max_passes")?
                .map_or(JobBudget::default().gyocro_max_passes, |n| n as usize),
        },
    };
    let fault = match value.get("fault") {
        None => FaultPolicy::default(),
        Some(fault) => FaultPolicy {
            deadline_ms: opt_u64(fault, "deadline_ms")?,
            max_live_nodes: opt_u64(fault, "max_live_nodes")?,
            step_deadline: opt_u64(fault, "step_deadline")?.map(|n| n as usize),
            retries: opt_u64(fault, "retries")?
                .map_or(Ok(0), u32::try_from)
                .map_err(|_| "field `retries` must fit in 32 bits".to_string())?,
            fallback: opt_bool(fault, "fallback")?.unwrap_or(true),
        },
    };

    Ok(JobSpec {
        name,
        relation,
        backends,
        cost,
        budget,
        strategy,
        fault,
    })
}

/// Appends the pair words `x << num_outputs | y` of one `input:image,…`
/// row string. Empty images between commas are skipped.
fn push_row_words(
    words: &mut Vec<u32>,
    text: &str,
    num_inputs: usize,
    num_outputs: usize,
) -> Result<(), String> {
    let (input, images) = text
        .split_once(':')
        .ok_or_else(|| format!("row `{text}` has no `:`"))?;
    let x = bits_to_word(input, num_inputs)? << num_outputs;
    for image in images.split(',').filter(|s| !s.is_empty()) {
        words.push(x | bits_to_word(image, num_outputs)?);
    }
    Ok(())
}

/// Packs a `width`-character `0`/`1` string ([`vertex::parse`]). The
/// caller bounds `width` by [`RelationSpec::MAX_WIDTH`].
fn bits_to_word(text: &str, width: usize) -> Result<u32, String> {
    let word = vertex::parse(text).map_err(|bad| format!("invalid bit `{bad}` in row"))?;
    if text.len() != width {
        return Err(format!(
            "bad relation: {}",
            RelationError::DimensionMismatch {
                expected: width,
                found: text.len(),
            }
        ));
    }
    Ok(word)
}

fn backend_from_name(name: &str) -> Option<BackendKind> {
    BackendKind::all().into_iter().find(|b| b.name() == name)
}

fn cost_from_name(name: &str) -> Option<CostSpec> {
    [
        CostSpec::SumBddSize,
        CostSpec::SumSquaredBddSize,
        CostSpec::SharedBddSize,
        CostSpec::CubeCount,
        CostSpec::LiteralCount,
    ]
    .into_iter()
    .find(|c| c.name() == name)
}

/// Writes one length-prefixed frame and flushes.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub(crate) fn write_frame(writer: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let body = frame.to_json().render();
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame too large"))?;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Blocking read of one length-prefixed frame. Intended for clients; the
/// daemon uses [`FrameReader`] so a read timeout cannot desynchronize the
/// stream mid-frame.
///
/// # Errors
///
/// `UnexpectedEof` at a clean close, `InvalidData` for malformed frames.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Frame> {
    let mut prefix = [0u8; 4];
    reader.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_BYTES}"),
        ));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    decode_body(&body)
}

fn decode_body(body: &[u8]) -> io::Result<Frame> {
    let text = std::str::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    let value = json::parse(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame JSON: {e}")))?;
    Frame::from_json(&value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))
}

/// An incremental frame decoder over a stream with a read timeout.
///
/// `read` may time out between (or inside) frames; the reader buffers
/// partial bytes so a timeout never loses protocol position — the
/// connection loop polls, handles idle bookkeeping, and polls again.
#[derive(Debug)]
pub struct FrameReader<R> {
    stream: R,
    buf: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a stream (typically with `set_read_timeout` configured).
    pub fn new(stream: R) -> Self {
        FrameReader {
            stream,
            buf: Vec::new(),
        }
    }

    /// Reads whatever is available: `Ok(Some(frame))` when a full frame
    /// is buffered, `Ok(None)` on a read timeout with no complete frame.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the peer closed, other I/O errors verbatim,
    /// `InvalidData` for malformed frames.
    pub(crate) fn poll(&mut self) -> io::Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.try_decode()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "peer closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn try_decode(&mut self) -> io::Result<Option<Frame>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds {MAX_FRAME_BYTES}"),
            ));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = decode_body(&self.buf[4..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brel_relation::{BooleanRelation, RelationSpace};

    fn fig1_job() -> JobSpec {
        let space = RelationSpace::new(2, 2);
        let r = BooleanRelation::from_table(&space, "00:{00}\n01:{00}\n10:{00,11}\n11:{10,11}")
            .unwrap();
        JobSpec::portfolio("fig1", RelationSpec::from_relation(&r).unwrap())
    }

    #[test]
    fn every_frame_round_trips_through_json() {
        let frames = vec![
            Frame::Submit(Submit {
                client: "c0".to_string(),
                job: fig1_job(),
                deadline_ms: Some(250),
                max_cost: None,
            }),
            Frame::Cancel { job: 7 },
            Frame::StatsRequest,
            Frame::Shutdown,
            Frame::Admitted {
                job: 7,
                queue_depth: 3,
            },
            Frame::Rejected {
                reason: "queue-full".to_string(),
                retry_after_ms: 40,
            },
            Frame::Incumbent {
                job: 7,
                cost: 12,
                explored: 4,
            },
            Frame::Final(FinalReport {
                job: 7,
                name: "fig1".to_string(),
                outcome: "degraded".to_string(),
                degraded: true,
                backend: Some("brel".to_string()),
                cost: Some(9),
                cubes: Some(3),
                literals: Some(5),
                explored: Some(11),
                fault: Some("cancelled after 11 expansions".to_string()),
                error: None,
                queue_wait_us: 1234,
                solve_us: 5678,
            }),
            Frame::Stats(StatsSnapshot {
                admitted: 10,
                shed: 2,
                cancelled: 1,
                drained: 3,
                completed: 9,
                degraded: 2,
                warm_reuses: 7,
                cold_builds: 2,
                quarantines: 1,
                queue_depth: 0,
                inflight: 1,
                draining: true,
            }),
            Frame::Error {
                message: "bad frame".to_string(),
            },
        ];
        for frame in frames {
            let rendered = frame.to_json().render();
            let parsed = Frame::from_json(&crate::json::parse(&rendered).unwrap()).unwrap();
            assert_eq!(parsed, frame, "{rendered}");
        }
    }

    #[test]
    fn job_codec_preserves_the_full_spec() {
        let job = fig1_job()
            .with_cost(CostSpec::LiteralCount)
            .with_budget(JobBudget {
                max_explored: None,
                fifo_capacity: Some(32),
                gyocro_max_passes: 5,
            })
            .with_strategy(SearchStrategy::BestFirst)
            .with_fault(FaultPolicy {
                deadline_ms: Some(500),
                max_live_nodes: Some(10_000),
                step_deadline: Some(64),
                retries: 2,
                fallback: false,
            });
        let round = job_from_json(&job_to_json(&job)).unwrap();
        assert_eq!(round.name, job.name);
        assert_eq!(round.relation, job.relation);
        assert_eq!(round.relation.fingerprint(), job.relation.fingerprint());
        assert_eq!(round.backends, job.backends);
        assert_eq!(round.cost, job.cost);
        assert_eq!(round.budget, job.budget);
        assert_eq!(round.strategy, job.strategy);
        assert_eq!(round.fault, job.fault);
    }

    #[test]
    fn job_parsing_applies_defaults_and_rejects_garbage() {
        let minimal = Json::object(vec![
            ("name", Json::str("tiny")),
            (
                "relation",
                Json::object(vec![
                    ("inputs", Json::UInt(1)),
                    ("outputs", Json::UInt(1)),
                    (
                        "rows",
                        Json::Array(vec![Json::str("0:0"), Json::str("1:1")]),
                    ),
                ]),
            ),
        ]);
        let job = job_from_json(&minimal).unwrap();
        assert_eq!(job.backends, BackendKind::all().to_vec());
        assert_eq!(job.cost, CostSpec::default());
        assert_eq!(job.budget, JobBudget::default());
        assert_eq!(job.fault, FaultPolicy::default());

        let mut bad_backend = minimal.clone();
        if let Json::Object(fields) = &mut bad_backend {
            fields.push((
                "backends".to_string(),
                Json::Array(vec![Json::str("warp-drive")]),
            ));
        }
        assert!(job_from_json(&bad_backend).is_err());

        // Fault-policy fields are range- and type-checked, not truncated
        // or coerced.
        let with_fault = |fault: Json| {
            let mut job = minimal.clone();
            if let Json::Object(fields) = &mut job {
                fields.push(("fault".to_string(), fault));
            }
            job_from_json(&job)
        };
        let retries = |n: u64| Json::object(vec![("retries", Json::UInt(n))]);
        assert_eq!(with_fault(retries(3)).unwrap().fault.retries, 3);
        assert_eq!(
            with_fault(retries(u64::from(u32::MAX) + 2)).unwrap_err(),
            "field `retries` must fit in 32 bits"
        );
        let fallback = |value: Json| Json::object(vec![("fallback", value)]);
        assert!(
            !with_fault(fallback(Json::Bool(false)))
                .unwrap()
                .fault
                .fallback
        );
        assert!(with_fault(fallback(Json::Null)).unwrap().fault.fallback);
        assert_eq!(
            with_fault(fallback(Json::str("no"))).unwrap_err(),
            "field `fallback` must be a boolean"
        );

        let bad_row = Json::object(vec![
            ("name", Json::str("bad")),
            (
                "relation",
                Json::object(vec![
                    ("inputs", Json::UInt(2)),
                    ("outputs", Json::UInt(1)),
                    ("rows", Json::Array(vec![Json::str("0:0")])),
                ]),
            ),
        ]);
        assert!(job_from_json(&bad_row).is_err());
    }

    #[test]
    fn frame_reader_survives_split_and_coalesced_frames() {
        // Two frames in one byte stream, delivered in adversarial chunks.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Cancel { job: 1 }).unwrap();
        write_frame(&mut wire, &Frame::Shutdown).unwrap();

        // A reader whose `read` returns one byte at a time, then times out.
        struct Trickle(Vec<u8>, usize);
        impl Read for Trickle {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "dry"));
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut reader = FrameReader::new(Trickle(wire, 0));
        let mut frames = Vec::new();
        loop {
            match reader.poll() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(frames, vec![Frame::Cancel { job: 1 }, Frame::Shutdown]);
    }

    #[test]
    fn oversized_length_prefixes_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        wire.extend_from_slice(b"xxxx");
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }
}
