//! A blocking protocol client: connect, submit, stream, cancel, drain.
//! The serving tests and `layerbench`'s closed-loop clients build on it.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use brel_engine::JobSpec;

use crate::protocol::{read_frame, write_frame, FinalReport, Frame, StatsSnapshot, Submit};

/// A blocking client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

/// What one submission produced, as seen from the client.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The server ticket (`None` when the job was shed).
    pub ticket: Option<u64>,
    /// Shed details when rejected.
    pub rejected: Option<(String, u64)>,
    /// Streamed `(cost, explored)` incumbents, in arrival order.
    pub incumbents: Vec<(u64, u64)>,
    /// The final report (`None` when the job was shed).
    pub final_report: Option<FinalReport>,
    /// Client-measured submit-to-decision latency, microseconds.
    pub admission_us: u64,
    /// Client-measured submit-to-first-incumbent latency, microseconds.
    pub first_incumbent_us: Option<u64>,
}

impl Client {
    /// Connects with a generous read timeout (a stuck daemon fails tests
    /// instead of hanging them).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client { stream })
    }

    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame(&mut self.stream, frame)
    }

    /// Blocking read of the next frame.
    ///
    /// # Errors
    ///
    /// Propagates the read failure (including the read timeout).
    pub fn recv(&mut self) -> io::Result<Frame> {
        read_frame(&mut self.stream)
    }

    /// Cancels a ticket (fire-and-forget; the `Final` still arrives).
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn cancel(&mut self, job: u64) -> io::Result<()> {
        self.send(&Frame::Cancel { job })
    }

    /// Requests and returns a stats snapshot. Must not be called while a
    /// solve of this connection is still streaming (frames would
    /// interleave).
    ///
    /// # Errors
    ///
    /// `InvalidData` if the daemon answers with something else.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        self.send(&Frame::StatsRequest)?;
        match self.recv()? {
            Frame::Stats(stats) => Ok(stats),
            other => Err(unexpected(&other)),
        }
    }

    /// Requests a drain shutdown and blocks until the final `Stats` frame
    /// arrives (skipping any late `Final`/`Incumbent` frames of this
    /// connection's own jobs).
    ///
    /// # Errors
    ///
    /// Propagates read/write failures.
    pub fn shutdown_and_wait(&mut self) -> io::Result<StatsSnapshot> {
        self.send(&Frame::Shutdown)?;
        loop {
            match self.recv()? {
                Frame::Stats(stats) => return Ok(stats),
                Frame::Final(_) | Frame::Incumbent { .. } => {}
                other => return Err(unexpected(&other)),
            }
        }
    }

    /// Submits a job and pumps frames to completion: collects the
    /// admission decision, every streamed incumbent and the final report.
    /// With `cancel_after_first_incumbent` the client sends a `cancel` as
    /// soon as the first incumbent arrives — the mid-stream cancel path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a shed submission is an `Ok` outcome with
    /// `rejected` set.
    pub fn solve(
        &mut self,
        job: &JobSpec,
        client_id: &str,
        deadline_ms: Option<u64>,
        max_cost: Option<u64>,
        cancel_after_first_incumbent: bool,
    ) -> io::Result<SolveOutcome> {
        let submitted = Instant::now();
        self.send(&Frame::Submit(Submit {
            client: client_id.to_string(),
            job: job.clone(),
            deadline_ms,
            max_cost,
        }))?;

        let ticket = match self.recv()? {
            Frame::Admitted { job, .. } => job,
            Frame::Rejected {
                reason,
                retry_after_ms,
            } => {
                return Ok(SolveOutcome {
                    ticket: None,
                    rejected: Some((reason, retry_after_ms)),
                    incumbents: Vec::new(),
                    final_report: None,
                    admission_us: submitted.elapsed().as_micros() as u64,
                    first_incumbent_us: None,
                })
            }
            other => return Err(unexpected(&other)),
        };
        let admission_us = submitted.elapsed().as_micros() as u64;

        let mut incumbents = Vec::new();
        let mut first_incumbent_us = None;
        let mut cancelled = false;
        loop {
            match self.recv()? {
                Frame::Incumbent {
                    job,
                    cost,
                    explored,
                } if job == ticket => {
                    if first_incumbent_us.is_none() {
                        first_incumbent_us = Some(submitted.elapsed().as_micros() as u64);
                    }
                    incumbents.push((cost, explored));
                    if cancel_after_first_incumbent && !cancelled {
                        cancelled = true;
                        self.cancel(ticket)?;
                    }
                }
                Frame::Final(report) if report.job == ticket => {
                    return Ok(SolveOutcome {
                        ticket: Some(ticket),
                        rejected: None,
                        incumbents,
                        final_report: Some(report),
                        admission_us,
                        first_incumbent_us,
                    })
                }
                // Frames for other tickets of this connection (late
                // finals after a cancel race) are skipped.
                Frame::Incumbent { .. } | Frame::Final(_) => {}
                other => return Err(unexpected(&other)),
            }
        }
    }
}

fn unexpected(frame: &Frame) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected frame: {frame:?}"),
    )
}
