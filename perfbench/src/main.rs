//! The Sentinel reproduction's benchmark: host time of training, planning,
//! serving and the experiment runner, attributed layer by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload zoo-steady --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --write-refs perfbench/refs.json
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer metrics of a separate traced run.
//! The line before it records the run's metadata. See `perfbench/README.md`.

mod inputs;
mod layers;
mod refs;
mod speed;
mod stats;
mod workloads;

use sentinel_util::Json;
use stats::{median, peak_rss_mb, percentile, Tally};
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 4] = [
    "zoo-steady",
    "deep-plan",
    "sentineld-mix",
    "experiments-fast",
];

/// Environment variables that change the simulated work or its threads.
const FORBIDDEN_ENV: [&str; 5] = [
    "SENTINEL_TRACE",
    "SENTINEL_FAULT_",
    "SENTINEL_JOBS",
    "SENTINEL_RETRY_",
    "SENTINEL_CLUSTER_",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn forbidden_env() -> Vec<String> {
    std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| FORBIDDEN_ENV.iter().any(|p| k.starts_with(p)))
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_owned())
}

/// The source revision: the git commit when the working directory is a
/// repository's root, otherwise a digest of the library sources.
fn revision() -> String {
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let root = command_line("git", &["rev-parse", "--show-toplevel"])
        .and_then(|r| std::path::PathBuf::from(r).canonicalize().ok());
    if here.is_some() && here == root {
        if let Some(rev) = command_line("git", &["rev-parse", "HEAD"]) {
            return rev;
        }
    }
    let mut files = Vec::new();
    let mut dirs = vec![std::path::PathBuf::from("crates")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.sort();
    let h = files.iter().fold(0u64, |h, f| {
        refs::chain(h, &std::fs::read_to_string(f).unwrap_or_default())
    });
    format!("src-{h:016x}")
}

/// Keep every thread of this process on the CPU it started on, so the
/// speed probes see the contention the measured code sees, and the server
/// and client of `sentineld-mix` share it. Returns the CPU.
fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = usize::try_from(unsafe { sched_getcpu() })
        .ok()
        .filter(|&c| c < 1024)?;
    let mut mask = [0u64; 16]; // a 1024-bit cpu_set_t
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is an initialised cpu_set_t of the size passed, alive
    // for the whole call; pid 0 names the calling thread, whose mask the
    // threads it spawns later inherit.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0;
    ok.then_some(cpu)
}

fn num(v: f64) -> Json {
    Json::F64(v)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", num(value)), ("unit", Json::Str(unit.into()))])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(at) = args.iter().position(|a| a == "--write-refs") {
        let Some(path) = args.get(at + 1) else {
            eprintln!("--write-refs needs a path");
            return ExitCode::from(2);
        };
        let text = refs::generate().to_pretty_string() + "\n";
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("writing {path}: {e}");
            return ExitCode::from(1);
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let forbidden = forbidden_env();
    if !forbidden.is_empty() {
        eprintln!(
            "perfbench: refusing to run: {forbidden:?} change the simulated work; unset them"
        );
        return ExitCode::from(2);
    }

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let pinned = pin_to_current_cpu();
    let mut tally = Tally::default();
    let mut extra: Vec<(&str, Json)> = Vec::new();
    let metrics: Vec<(String, Json)> = if args.trace {
        let refs = refs::Refs::load();
        layers::run(&args.workload, args.seed, &refs, &mut tally)
            .into_iter()
            .map(|(name, value, unit)| (name, metric(value, unit)))
            .collect()
    } else {
        let e = match workloads::run(&args.workload, args.seed, args.seconds, &mut tally) {
            Ok(e) => e,
            Err(err) => {
                eprintln!("perfbench: {err}");
                return ExitCode::from(1);
            }
        };
        let (s, raw) = (e.summary(true), e.summary(false));
        if s.op_ms.is_empty() || s.units == 0 {
            eprintln!("perfbench: the workload completed no operation");
            return ExitCode::from(1);
        }
        let slowdowns = e.speed.slowdowns();
        extra = vec![
            (
                "samples",
                Json::obj([
                    ("setup_s", Json::U64(e.setup.len() as u64)),
                    ("run_s", Json::U64(s.round_s.len() as u64)),
                    ("op_ms", Json::U64(s.op_ms.len() as u64)),
                    ("ops_per_s", Json::U64(s.units)),
                ]),
            ),
            (
                "raw",
                Json::obj([
                    ("setup_s", num(raw.setup_s)),
                    ("run_s", num(median(&raw.round_s))),
                    ("op_ms_p50", num(median(&raw.op_ms))),
                    ("op_ms_p90", num(percentile(&raw.op_ms, 90.0))),
                    ("ops_per_s", num(raw.units as f64 / raw.unit_s)),
                ]),
            ),
            (
                "host_slowdown",
                Json::obj([
                    ("probes", Json::U64(slowdowns.len() as u64)),
                    ("median", num(median(&slowdowns))),
                    (
                        "min",
                        num(slowdowns.iter().copied().fold(f64::INFINITY, f64::min)),
                    ),
                    ("max", num(slowdowns.iter().copied().fold(0.0, f64::max))),
                ]),
            ),
        ];
        vec![
            ("setup_s".into(), metric(s.setup_s, "s")),
            ("run_s".into(), metric(median(&s.round_s), "s")),
            ("op_ms_p50".into(), metric(median(&s.op_ms), "ms")),
            ("op_ms_p90".into(), metric(percentile(&s.op_ms, 90.0), "ms")),
            ("ops_per_s".into(), metric(s.units as f64 / s.unit_s, "1/s")),
            ("peak_rss_mb".into(), metric(peak_rss_mb(), "MiB")),
        ]
    };

    let mut meta = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::U64(args.seed)),
        ("seconds", num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::U64(nproc as u64)),
        (
            "pinned_cpu",
            pinned.map_or(Json::Null, |c| Json::U64(c as u64)),
        ),
        ("revision", Json::Str(revision())),
        (
            "rustc",
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
    ];
    meta.extend(extra);
    println!("{}", Json::obj([("meta", Json::obj(meta))]));
    let result = Json::obj([
        (
            "correct",
            Json::Bool(tally.failed == 0 && tally.attempted > 0),
        ),
        ("attempted", Json::U64(tally.attempted.max(1))),
        ("failed", Json::U64(tally.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
