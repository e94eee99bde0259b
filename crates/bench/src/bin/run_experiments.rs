//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p sentinel-bench --release --bin run_experiments            # full suite
//! cargo run -p sentinel-bench --release --bin run_experiments -- --fast  # quick pass
//! cargo run -p sentinel-bench --release --bin run_experiments -- fig7    # one experiment
//! cargo run -p sentinel-bench --release --bin run_experiments -- --jobs 4  # 4 workers
//! cargo run -p sentinel-bench --release --bin run_experiments -- --fail-fast  # abort on error
//! cargo run -p sentinel-bench --release --bin run_experiments -- --trace-dir traces fig7
//! ```
//!
//! Writes `results/<id>.json` per experiment and assembles
//! `EXPERIMENTS_GENERATED.md` with every rendered table. Words that are not
//! flags select the experiments whose ids contain them; any flag other
//! than the ones above exits 2 and names the known flags.
//!
//! By default the runner *keeps going* when one experiment fails: the error
//! is logged, a `results/<id>.FAILED.json` stub records it, the remaining
//! experiments still run, and the process exits nonzero. `--fail-fast`
//! restores the abort-on-first-panic behaviour.
//!
//! Setting `SENTINEL_FAULT_SEED` (and optionally `SENTINEL_FAULT_PROFILE`)
//! arms deterministic fault injection in every Sentinel run and adds the
//! `chaos` experiment to the registry; see DESIGN.md "Fault model".
//!
//! `--trace-dir DIR` records a structured trace of every Sentinel run into
//! `DIR/<run>.trace.json` (Chrome `trace_event` format — load the files in
//! `chrome://tracing` or <https://ui.perfetto.dev>). The flag implies
//! `SENTINEL_TRACE=full` unless the variable is already set; see DESIGN.md
//! "Trace schema".
//!
//! Independent experiments run concurrently on `--jobs N` workers
//! (`SENTINEL_JOBS` honored, host parallelism by default, `--jobs 1` for
//! the serial path); every experiment is deterministic and owns its
//! simulator state, so output bytes are identical at any job count —
//! `tests/parallel_determinism.rs` enforces exactly that.

use sentinel_bench::{experiment_registry, ExpConfig, ExpResult};
use std::fs;
use std::io::Write;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { fast, fail_fast, jobs, trace_dir, filter } = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let jobs = jobs.unwrap_or_else(sentinel_util::default_jobs);
    // Propagate to every pool sized via `default_jobs()` — in particular
    // SwapAdvisor's GA, which runs deep inside `run_gpu_baseline`.
    sentinel_util::set_default_jobs(jobs);
    let cfg = ExpConfig::new(fast).with_jobs(jobs);

    if let Some(dir) = &trace_dir {
        // Must happen before the worker pool spawns: the harness reads both
        // variables per run.
        fs::create_dir_all(dir).expect("create trace dir");
        std::env::set_var("SENTINEL_TRACE_DIR", dir);
        if std::env::var("SENTINEL_TRACE").is_err() {
            std::env::set_var("SENTINEL_TRACE", "full");
        }
    }

    fs::create_dir_all("results").expect("create results dir");
    let started = Instant::now();

    let registry: Vec<_> = experiment_registry()
        .into_iter()
        .filter(|(id, _)| filter.is_empty() || filter.iter().any(|f| id.contains(f.as_str())))
        .collect();
    println!(
        "running {} experiments ({} mode, {} worker{})...",
        registry.len(),
        if fast { "fast" } else { "full" },
        jobs,
        if jobs == 1 { "" } else { "s" },
    );
    if registry.is_empty() {
        eprintln!(
            "no experiment matched the filter; known ids: {}",
            experiment_registry().iter().map(|(id, _)| *id).collect::<Vec<_>>().join(", ")
        );
        std::process::exit(2);
    }

    // Independent experiments run concurrently; each one writes its
    // `results/<id>.json` the moment it completes, so partial progress is
    // saved even if a later experiment dies. `run_all` returns results in
    // registry order regardless of completion order, keeping the assembled
    // markdown — and therefore every output byte — independent of `--jobs`.
    //
    // By default a panicking experiment is caught here: the panic is
    // logged, a `results/<id>.FAILED.json` stub records it, and the run
    // continues. Under `--fail-fast` the panic propagates through the pool
    // and aborts the whole run.
    let outcomes: Vec<Option<ExpResult>> = cfg.pool().run_all(
        registry
            .into_iter()
            .map(|(id, generator)| {
                move || {
                    let run = || {
                        let result = generator(&cfg);
                        let json = sentinel_util::ToJson::to_json(&result).to_pretty_string();
                        fs::write(format!("results/{}.json", result.id), json)
                            .expect("write json");
                        println!(
                            "  [{}] {} ({:.1}s elapsed)",
                            result.id,
                            result.title,
                            started.elapsed().as_secs_f64()
                        );
                        result
                    };
                    if fail_fast {
                        return Some(run());
                    }
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
                        Ok(result) => Some(result),
                        Err(payload) => {
                            // `&payload` would unsize the Box itself to
                            // `&dyn Any` (Box<dyn Any + Send> implements Any)
                            // and every downcast would miss; deref first.
                            let message = panic_message(&*payload);
                            eprintln!("  [{id}] FAILED: {message}");
                            let stub = sentinel_util::Json::Obj(vec![
                                ("id".to_owned(), sentinel_util::Json::Str(id.to_owned())),
                                ("failed".to_owned(), sentinel_util::Json::Bool(true)),
                                ("error".to_owned(), sentinel_util::Json::Str(message)),
                            ])
                            .to_pretty_string();
                            let _ = fs::write(format!("results/{id}.FAILED.json"), stub);
                            None
                        }
                    }
                }
            })
            .collect(),
    );
    let failures = outcomes.iter().filter(|o| o.is_none()).count();
    let sections: Vec<ExpResult> = outcomes.into_iter().flatten().collect();
    if failures > 0 {
        eprintln!(
            "{failures} experiment(s) failed; see results/*.FAILED.json. \
             EXPERIMENTS_GENERATED.md left as-is."
        );
        std::process::exit(1);
    }

    if filter.is_empty() {
        let mut md = String::from(
            "# Generated experiment results\n\nProduced by `cargo run -p sentinel-bench --release --bin run_experiments`.\nSee `EXPERIMENTS.md` for the paper-vs-measured discussion.\n",
        );
        for s in &sections {
            md.push_str(&format!("\n## {}\n\n{}\n", s.title, s.markdown));
        }
        let mut f = fs::File::create("EXPERIMENTS_GENERATED.md").expect("create md");
        f.write_all(md.as_bytes()).expect("write md");
        println!(
            "wrote EXPERIMENTS_GENERATED.md and results/*.json in {:.1}s",
            started.elapsed().as_secs_f64()
        );
    } else {
        println!(
            "(filtered run: {} results/*.json updated in {:.1}s; EXPERIMENTS_GENERATED.md left as-is)",
            sections.len(),
            started.elapsed().as_secs_f64()
        );
    }
}

/// Best-effort human-readable message out of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "experiment panicked".to_owned()
    }
}

/// The command line, classified.
#[derive(Debug, Default, PartialEq)]
struct Args {
    fast: bool,
    fail_fast: bool,
    /// `--jobs N`; `None` falls back to `SENTINEL_JOBS` and then host
    /// parallelism via [`sentinel_util::default_jobs`].
    jobs: Option<usize>,
    trace_dir: Option<String>,
    /// Experiment filter words.
    filter: Vec<String>,
}

/// Classify every token: `--fast`, `--fail-fast`, `--jobs N` / `--jobs=N`,
/// `--trace-dir DIR` / `--trace-dir=DIR`, or a filter word. Anything else
/// that starts with `-` is an error naming the known flags, so a mistyped
/// flag never turns its value into a filter word.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (a.as_str(), None),
        };
        let mut value = || inline.or_else(|| it.next().map(String::as_str));
        match flag {
            "--fast" if inline.is_none() => out.fast = true,
            "--fail-fast" if inline.is_none() => out.fail_fast = true,
            "--jobs" => {
                let jobs = value().and_then(|v| v.parse::<usize>().ok()).filter(|&n| n >= 1);
                out.jobs =
                    Some(jobs.ok_or("--jobs expects a positive integer, e.g. --jobs 4")?);
            }
            "--trace-dir" => {
                let dir = value().filter(|v| !v.is_empty() && !v.starts_with("--"));
                out.trace_dir =
                    Some(dir.ok_or("--trace-dir expects a directory path")?.to_owned());
            }
            _ if a.starts_with('-') => {
                return Err(format!(
                    "unknown flag {a}; known flags: --fast, --fail-fast, --jobs N, --trace-dir DIR"
                ));
            }
            _ => out.filter.push(a.clone()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_and_removed_flags_are_refused() {
        for line in ["--fast --jobs 2 --tennants 5 table1", "--tenants 3 cluster", "-j 2"] {
            let err = parse(line).expect_err(line);
            assert!(err.contains("unknown flag") && err.contains("--trace-dir DIR"), "{err}");
        }
        assert!(parse("--fast=1").is_err());
    }

    #[test]
    fn known_flags_parse_in_both_spellings() {
        assert_eq!(parse(""), Ok(Args::default()));
        let both = Args { fast: true, fail_fast: true, ..Args::default() };
        assert_eq!(parse("--fast --fail-fast"), Ok(both));
        for line in ["--jobs 2", "--jobs=2"] {
            assert_eq!(parse(line), Ok(Args { jobs: Some(2), ..Args::default() }), "{line}");
        }
        for line in ["--trace-dir traces", "--trace-dir=traces"] {
            let want = Args { trace_dir: Some("traces".to_owned()), ..Args::default() };
            assert_eq!(parse(line), Ok(want), "{line}");
        }
        for line in ["--jobs", "--jobs 0", "--jobs=x", "--trace-dir", "--trace-dir --fast"] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn other_words_are_filters() {
        let args = parse("fig7 --jobs 2 table1").unwrap();
        assert_eq!(args.filter, ["fig7", "table1"]);
        assert_eq!(args.jobs, Some(2));
    }
}
