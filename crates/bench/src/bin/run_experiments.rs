//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p sentinel-bench --release --bin run_experiments            # full suite
//! cargo run -p sentinel-bench --release --bin run_experiments -- --fast  # quick pass
//! cargo run -p sentinel-bench --release --bin run_experiments -- fig7    # one experiment
//! cargo run -p sentinel-bench --release --bin run_experiments -- --jobs 4  # 4 workers
//! cargo run -p sentinel-bench --release --bin run_experiments -- --fail-fast  # abort on error
//! cargo run -p sentinel-bench --release --bin run_experiments -- --trace-dir traces fig7
//! cargo run -p sentinel-bench --release --bin run_experiments -- --tenants 5 cluster
//! ```
//!
//! Writes `results/<id>.json` per experiment and assembles
//! `EXPERIMENTS_GENERATED.md` with every rendered table.
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
//! `--tenants N`, `--arrival-seed S` and `--min-quota-frac X` parameterize
//! the `cluster` experiment (exported as `SENTINEL_CLUSTER_TENANTS`,
//! `SENTINEL_CLUSTER_ARRIVAL_SEED`, `SENTINEL_CLUSTER_MIN_QUOTA_FRAC`); see
//! DESIGN.md "Multi-tenant cluster scheduling".
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
    let fast = args.iter().any(|a| a == "--fast");
    let keep_going = !args.iter().any(|a| a == "--fail-fast");
    let jobs = match parse_jobs(&args) {
        Ok(jobs) => jobs,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let trace_dir = match parse_trace_dir(&args) {
        Ok(dir) => dir,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let cluster_knobs = match parse_cluster_knobs(&args) {
        Ok(knobs) => knobs,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let filter: Vec<&String> = {
        // Skip flag tokens and the value following a bare value-taking flag.
        let value_flags =
            ["--jobs", "--trace-dir", "--tenants", "--arrival-seed", "--min-quota-frac"];
        let mut filter = Vec::new();
        let mut skip_next = false;
        for a in &args {
            if skip_next {
                skip_next = false;
            } else if value_flags.contains(&a.as_str()) {
                skip_next = true;
            } else if !a.starts_with("--") {
                filter.push(a);
            }
        }
        filter
    };
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

    // Like `--trace-dir`, the cluster knobs travel as env vars so the
    // experiment sees them regardless of which pool worker runs it.
    for (var, value) in cluster_knobs {
        std::env::set_var(var, value);
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
    // Under `--keep-going` (the default) a panicking experiment is caught
    // here: the panic is logged, a `results/<id>.FAILED.json` stub records
    // it, and the run continues. Under `--fail-fast` the panic propagates
    // through the pool and aborts the whole run, as before.
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
                    if !keep_going {
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

/// Parse `--trace-dir DIR` / `--trace-dir=DIR`.
fn parse_trace_dir(args: &[String]) -> Result<Option<String>, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let raw = if a == "--trace-dir" {
            it.next().map(String::as_str)
        } else if let Some(v) = a.strip_prefix("--trace-dir=") {
            Some(v)
        } else {
            continue;
        };
        return raw
            .filter(|v| !v.is_empty() && !v.starts_with("--"))
            .map(|v| Some(v.to_owned()))
            .ok_or_else(|| "--trace-dir expects a directory path".to_owned());
    }
    Ok(None)
}

/// Parse the cluster-experiment knobs `--tenants N`, `--arrival-seed S`
/// and `--min-quota-frac X` (each also accepting `--flag=V`) into the
/// `(env var, value)` pairs the `cluster` experiment reads. Values are
/// validated by the experiment itself; here they only need to be present.
fn parse_cluster_knobs(args: &[String]) -> Result<Vec<(&'static str, String)>, String> {
    let flags = [
        ("--tenants", "SENTINEL_CLUSTER_TENANTS"),
        ("--arrival-seed", "SENTINEL_CLUSTER_ARRIVAL_SEED"),
        ("--min-quota-frac", "SENTINEL_CLUSTER_MIN_QUOTA_FRAC"),
    ];
    let mut out = Vec::new();
    for (flag, var) in flags {
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let raw = if a == flag {
                it.next().map(String::as_str)
            } else if let Some(v) = a.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) {
                Some(v)
            } else {
                continue;
            };
            let value = raw
                .filter(|v| !v.is_empty() && !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} expects a value, e.g. {flag} 4"))?;
            out.push((var, value.to_owned()));
            break;
        }
    }
    Ok(out)
}

/// Parse `--jobs N` / `--jobs=N`, falling back to `SENTINEL_JOBS` and then
/// host parallelism via [`sentinel_util::default_jobs`].
fn parse_jobs(args: &[String]) -> Result<usize, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let raw = if a == "--jobs" {
            it.next().map(String::as_str)
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            Some(v)
        } else {
            continue;
        };
        return raw
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .ok_or_else(|| "--jobs expects a positive integer, e.g. --jobs 4".to_owned());
    }
    Ok(sentinel_util::default_jobs())
}
