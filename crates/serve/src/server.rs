//! The `sentineld` server: accept, multiplex, serve, shut down cleanly.
//!
//! Concurrency is built on [`sentinel_util::pool::Pool`]: [`Server::run`]
//! submits one acceptor job plus `workers` connection-handler jobs to a
//! scoped pool and blocks until all of them retire. Accepted sockets flow
//! through a condvar-guarded queue; a `shutdown` request flips the stop
//! flag, self-connects once to unblock the acceptor's `accept()`, and
//! wakes every idle handler. Handlers poll the stop flag between frames
//! (each connection carries a short read deadline), so shutdown latency is
//! bounded without interrupting a frame mid-read.
//!
//! One misbehaving connection must never take the daemon down: per-request
//! failures become typed error frames (see `msg::RequestError`), and the
//! whole per-connection loop runs under `catch_unwind` so even a bug that
//! panics poisons only that connection, not the pool scope.

use crate::codec::{read_frame, write_frame, WireError, MAX_FRAME_BYTES_DEFAULT};
use crate::msg::{Request, RequestError, RunSpec};
use sentinel_core::{fast_sized_for, ReorgPlan, RunEvent, SentinelRuntime};
use sentinel_models::ModelZoo;
use sentinel_util::{Json, Pool, ToJson};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Read deadline granularity: how often an idle handler re-checks the
/// stop flag. Bounds shutdown latency; never splits a frame (the codec
/// extends the deadline once a frame has started).
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Shared accept-queue and shutdown state.
struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    stop: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    /// Request shutdown: flip the flag, wake idle handlers, and poke the
    /// acceptor's blocking `accept()` with a throwaway connection.
    fn initiate_shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.ready.notify_all();
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound, not-yet-running `sentineld` server.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    shared: Shared,
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) with
    /// `workers` concurrent connection handlers.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            workers: workers.max(1),
            shared: Shared {
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
                stop: AtomicBool::new(false),
                addr,
            },
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Ask a running server to stop, from another thread holding a
    /// reference (tests; clients normally send a `shutdown` frame).
    pub fn request_shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Serve until a `shutdown` request arrives. Blocks; all handler
    /// threads are joined before this returns, so a clean return means no
    /// stray server threads remain.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener failures. Per-connection errors are
    /// handled inline and never surface here.
    pub fn run(&self) -> io::Result<()> {
        let pool = Pool::new(self.workers + 1);
        let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(self.workers + 1);
        jobs.push(Box::new(|| self.accept_loop()));
        for _ in 0..self.workers {
            jobs.push(Box::new(|| self.handler_loop()));
        }
        let _: Vec<()> = pool.run_all(jobs);
        Ok(())
    }

    fn accept_loop(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.stop.load(Ordering::SeqCst) {
                        break; // the wake-up poke, or a late client
                    }
                    let mut queue = self.shared.queue.lock().expect("accept queue poisoned");
                    queue.push_back(stream);
                    drop(queue);
                    self.shared.ready.notify_one();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    if self.shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // Transient accept failure (e.g. aborted handshake).
                }
            }
        }
        // No more connections will arrive; release any waiting handlers.
        self.shared.ready.notify_all();
    }

    fn handler_loop(&self) {
        loop {
            let stream = {
                let mut queue = self.shared.queue.lock().expect("accept queue poisoned");
                loop {
                    if let Some(stream) = queue.pop_front() {
                        break Some(stream);
                    }
                    if self.shared.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    queue = self
                        .shared
                        .ready
                        .wait(queue)
                        .expect("accept queue poisoned");
                }
            };
            let Some(stream) = stream else { return };
            // A connection-handler bug must poison one connection, not the
            // pool scope: swallow the panic and keep serving.
            let _ = catch_unwind(AssertUnwindSafe(|| self.serve_connection(stream)));
        }
    }

    /// Serve one connection until it closes, errs fatally, or shutdown.
    fn serve_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        let _ = stream.set_nodelay(true);
        loop {
            let frame = match read_frame(&mut stream, MAX_FRAME_BYTES_DEFAULT) {
                Ok(frame) => frame,
                Err(WireError::Idle) => {
                    if self.shared.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(err) => {
                    if let Some(req_err) = RequestError::from_wire(&err) {
                        let _ = write_frame(&mut stream, &req_err.to_frame());
                        // Payload-level JSON failures leave framing intact;
                        // everything else loses sync and must close.
                        if matches!(err, WireError::Json(_)) {
                            continue;
                        }
                        drain_and_close(&stream);
                    }
                    return;
                }
            };
            match Request::parse(&frame) {
                Err(req_err) => {
                    if write_frame(&mut stream, &req_err.to_frame()).is_err() {
                        return;
                    }
                }
                Ok(Request::Ping) => {
                    let pong = Json::obj([("type", Json::Str("pong".into()))]);
                    if write_frame(&mut stream, &pong).is_err() {
                        return;
                    }
                }
                Ok(Request::Shutdown) => {
                    let bye = Json::obj([("type", Json::Str("shutting_down".into()))]);
                    let _ = write_frame(&mut stream, &bye);
                    self.shared.initiate_shutdown();
                    return;
                }
                Ok(Request::Plan(spec)) => {
                    let reply = match plan_query(&spec) {
                        Ok(frame) => frame,
                        Err(req_err) => req_err.to_frame(),
                    };
                    if write_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
                Ok(Request::Run(spec)) => {
                    if !streamed_run(&mut stream, &spec) {
                        return;
                    }
                }
            }
        }
    }
}

/// Gracefully close a desynchronized connection after its error frame:
/// send FIN first, then discard whatever the client already wrote until it
/// closes its end (or a ~1 s deadline of idle read polls expires). Closing
/// with unread bytes queued would make the kernel send RST, which races
/// ahead of — and can discard — the just-written error frame.
fn drain_and_close(mut stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut scratch = [0u8; 4096];
    let mut idle_polls = 0u32;
    while idle_polls < 10 {
        match io::Read::read(&mut stream, &mut scratch) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                idle_polls += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Build the runtime for `spec` (graph + sized machine + config).
fn build_runtime(
    spec: &RunSpec,
) -> Result<(sentinel_dnn::Graph, SentinelRuntime), RequestError> {
    let graph = ModelZoo::build(&spec.model)
        .map_err(|e| RequestError::run_failed(format!("model build failed: {e}")))?;
    let hm = match spec.fast_fraction {
        Some(fraction) => fast_sized_for(spec.machine.clone(), &graph, fraction),
        None => spec.machine.clone(),
    };
    let mut runtime = SentinelRuntime::new(spec.config.clone(), hm).with_trace(spec.trace);
    if let Some((profile, seed)) = &spec.fault {
        runtime = runtime.with_fault_injection(*profile, *seed);
    }
    Ok((graph, runtime))
}

/// Answer a `plan` query: run the profiling step plus a few managed steps
/// through the normal `solve_mil` path and report the chosen plan.
fn plan_query(spec: &RunSpec) -> Result<Json, RequestError> {
    let (graph, runtime) = build_runtime(spec)?;
    let outcome = runtime
        .train(&graph, spec.steps.max(2))
        .map_err(|e| RequestError::run_failed(e.to_string()))?;
    let num_pools = outcome.profile.as_ref().map(|p| ReorgPlan::new(p).num_pools());
    let mut members = vec![
        ("type", Json::Str("plan".into())),
        ("model", Json::Str(spec.model.name())),
        ("fast_capacity_bytes", Json::U64(runtime.hm().tier(sentinel_mem::Tier::Fast).capacity_bytes)),
        ("mil", Json::U64(outcome.stats.mil as u64)),
        ("reserve_pages", Json::U64(outcome.stats.reserve_pages)),
        ("predicted_step_ns", Json::U64(outcome.report.steady_step_ns())),
    ];
    if let Some(n) = num_pools {
        members.push(("num_pools", Json::U64(n as u64)));
    }
    if let Some(solution) = &outcome.mil_solution {
        members.push(("solution", solution.to_json()));
    }
    Ok(Json::obj(members))
}

/// Execute a `run` request, streaming one `step` frame per training step.
/// Returns `false` if the connection died (caller should close).
fn streamed_run(stream: &mut TcpStream, spec: &RunSpec) -> bool {
    let (graph, runtime) = match build_runtime(spec) {
        Ok(built) => built,
        Err(req_err) => return write_frame(stream, &req_err.to_frame()).is_ok(),
    };
    let started = Json::obj([
        ("type", Json::Str("run_started".into())),
        ("model", Json::Str(spec.model.name())),
        ("steps", Json::U64(spec.steps as u64)),
    ]);
    if write_frame(stream, &started).is_err() {
        return false;
    }
    let mut streamed_events = 0usize;
    let mut conn_alive = true;
    let outcome = runtime.train_streamed(&graph, spec.steps, |event| match event {
        RunEvent::Step { report, trace, .. } => {
            streamed_events += trace.len();
            let frame = Json::obj([
                ("type", Json::Str("step".into())),
                ("report", report.to_json()),
                ("trace", Json::Arr(trace.iter().map(ToJson::to_json).collect())),
            ]);
            conn_alive = write_frame(stream, &frame).is_ok();
            conn_alive // a dead client aborts the simulation
        }
        _ => true,
    });
    match outcome {
        Err(e) => {
            let req_err = RequestError::run_failed(e.to_string());
            write_frame(stream, &req_err.to_frame()).is_ok()
        }
        Ok(None) => conn_alive, // aborted: either client death or a future cancel
        Ok(Some(outcome)) => {
            // Trace events recorded after the last step callback (train-end
            // bookkeeping) ride on the completion frame, so the client's
            // concatenation reproduces the batch trace byte-for-byte.
            let tail: Vec<Json> = outcome
                .trace
                .as_ref()
                .map(|t| t.events[streamed_events..].iter().map(ToJson::to_json).collect())
                .unwrap_or_default();
            let mut members = vec![
                ("type", Json::Str("run_complete".into())),
                ("steps_executed", Json::U64(outcome.steps_executed as u64)),
                ("report", outcome.report.to_json()),
                ("stats", outcome.stats.to_json()),
            ];
            if !outcome.fault_counters.is_zero() {
                members.push(("fault", outcome.fault_counters.to_json()));
            }
            if !tail.is_empty() {
                members.push(("trace_tail", Json::Arr(tail)));
            }
            write_frame(stream, &Json::obj(members)).is_ok()
        }
    }
}
