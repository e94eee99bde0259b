//! Host-speed normalization.
//!
//! On a shared host, neighbours' cache pressure can slow this kind of code
//! by up to ~1.6x for seconds at a time, while pure arithmetic runs at
//! full speed. Every [`PROBE_EVERY`] a prober thread on the same CPU times
//! a fixed calibration kernel (an L1/L2-bound binary search plus
//! short-lived vector allocations, which slow down the way the simulator
//! does): between timed calls, while the measuring thread waits, or, where
//! single calls run for seconds, beside them. Each timing is divided by the
//! kernel's slowdown around it, so it reads as it would on the reference
//! host with no neighbours. The kernel lives in the benchmark, so no
//! change to the library moves it, and probe time is subtracted from every
//! interval it overlaps.

use crate::stats::median;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host (2-vCPU Xeon sandbox) when no
/// neighbour slows it down.
const NOMINAL_KERNEL_MS: f64 = 0.48;
const KERNEL_RUNS: usize = 3;
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// One timed interval of the measured thread.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub from: Instant,
    pub to: Instant,
}

impl Span {
    pub fn since(from: Instant) -> Span {
        Span {
            from,
            to: Instant::now(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Probe {
    span: Span,
    slowdown: f64,
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 11
}

/// Time the calibration kernel [`KERNEL_RUNS`] times back to back and keep
/// the fastest, which drops a run the measured thread preempted.
fn probe(table: &[u64]) -> Probe {
    let table = black_box(table);
    let from = Instant::now();
    let mut best = Duration::MAX;
    for _ in 0..KERNEL_RUNS {
        let t = Instant::now();
        let mut x = 7u64;
        let mut sum = 0u64;
        for _ in 0..16_000 {
            let key = lcg(&mut x) % (table.len() as u64 * 4);
            sum += table.binary_search(&key).unwrap_or(0) as u64;
        }
        for _ in 0..2_000 {
            let n = lcg(&mut x) % 200;
            let v: Vec<u64> = (0..n).map(|i| i * x).collect();
            sum += black_box(v).iter().filter(|&&a| a & 1 == 0).count() as u64;
        }
        black_box(sum);
        best = best.min(t.elapsed());
    }
    Probe {
        span: Span::since(from),
        slowdown: best.as_secs_f64() * 1e3 / NOMINAL_KERNEL_MS,
    }
}

enum Cmd {
    Probe,
    Background(bool),
    Stop,
}

/// The prober thread: waits for commands, probes on request and, in
/// background mode, every [`PROBE_EVERY`] as well. Replies are
/// `(requested, probe)`.
fn prober(cmds: Receiver<Cmd>, replies: Sender<(bool, Probe)>) {
    let table: Vec<u64> = (0..4096u64).map(|i| i * 4).collect();
    probe(&table); // warm up
    let mut background = false;
    loop {
        let cmd = if background {
            match cmds.recv_timeout(PROBE_EVERY) {
                Ok(cmd) => Some(cmd),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        } else {
            match cmds.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => return,
            }
        };
        let reply = match cmd {
            None => (false, probe(&table)),
            Some(Cmd::Probe) => (true, probe(&table)),
            Some(Cmd::Background(on)) => {
                background = on;
                continue;
            }
            Some(Cmd::Stop) => return,
        };
        if replies.send(reply).is_err() {
            return;
        }
    }
}

/// The probes of one workload run, in time order, and the thread that
/// takes them. The kernel runs on its own thread so that its allocations
/// never share the measured thread's heap; create this after pinning, so
/// the prober shares the measured thread's CPU.
pub struct Speed {
    cmds: Sender<Cmd>,
    replies: Receiver<(bool, Probe)>,
    prober: Option<JoinHandle<()>>,
    probes: Vec<Probe>,
}

impl Drop for Speed {
    fn drop(&mut self) {
        let _ = self.cmds.send(Cmd::Stop);
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
    }
}

impl Speed {
    pub fn new() -> Speed {
        let (cmds, cmd_rx) = channel();
        let (reply_tx, replies) = channel();
        let prober = std::thread::spawn(move || prober(cmd_rx, reply_tx));
        let mut speed = Speed {
            cmds,
            replies,
            prober: Some(prober),
            probes: Vec::new(),
        };
        speed.probe();
        speed
    }

    /// Probe now and wait for it, collecting any background probes first.
    fn probe(&mut self) {
        self.cmds
            .send(Cmd::Probe)
            .expect("the prober thread is alive");
        loop {
            let (requested, probe) = self.replies.recv().expect("the prober thread is alive");
            self.probes.push(probe);
            if requested {
                return;
            }
        }
    }

    /// Probe if one is due. Call only between timed calls: this thread
    /// waits while the prober runs.
    pub fn tick(&mut self) {
        if self
            .probes
            .last()
            .is_none_or(|p| p.span.to.elapsed() >= PROBE_EVERY)
        {
            self.probe();
        }
    }

    /// Turn background probing on or off, for timed calls too long to
    /// wait for the next [`tick`](Self::tick): the prober then interrupts
    /// them every [`PROBE_EVERY`].
    pub fn background(&mut self, on: bool) {
        self.cmds
            .send(Cmd::Background(on))
            .expect("the prober thread is alive");
        if !on {
            self.probe();
        }
    }

    /// Host time the measured thread had in `span`: its length minus the
    /// probes that ran inside it.
    pub fn secs(&self, span: &Span) -> f64 {
        let busy: Duration = self
            .probes
            .iter()
            .map(|p| {
                p.span
                    .to
                    .min(span.to)
                    .saturating_duration_since(p.span.from.max(span.from))
            })
            .sum();
        (span.to - span.from).saturating_sub(busy).as_secs_f64()
    }

    /// Median slowdown over `span`: every probe that ends inside it, plus
    /// the last one before it and the first one after it.
    pub fn slowdown(&self, span: &Span) -> f64 {
        let first = self
            .probes
            .partition_point(|p| p.span.to < span.from)
            .saturating_sub(1);
        let last = self
            .probes
            .partition_point(|p| p.span.to <= span.to)
            .min(self.probes.len() - 1);
        let window: Vec<f64> = self.probes[first..=last.max(first)]
            .iter()
            .map(|p| p.slowdown)
            .collect();
        median(&window)
    }

    pub fn slowdowns(&self) -> Vec<f64> {
        self.probes.iter().map(|p| p.slowdown).collect()
    }
}
