//! CPU-platform figures: 5, 7, 8, 9, 10, 11.

use crate::harness::{fx, mib, run_cpu_baseline, run_sentinel, run_sentinel_with, ExpConfig, ExpResult};
use sentinel_baselines::{run_baseline, Baseline};
use sentinel_core::{fast_sized_for, SentinelConfig, SentinelPolicy};
use sentinel_dnn::Executor;
use sentinel_mem::{HmConfig, MemorySystem, MILLISECOND};
use sentinel_models::{ModelSpec, ModelZoo};

/// Figure 5: performance versus migration interval length (ResNet-32).
#[must_use]
pub fn fig5(cfg: &ExpConfig) -> ExpResult {
    struct Point {
        mil: usize,
        step_ns: u64,
        case2: u64,
        case3: u64,
    }
    sentinel_util::impl_to_json!(Point { mil, step_ns, case2, case3 });
    let spec = ModelSpec::resnet(32, 64).with_scale(cfg.scale());
    let graph = ModelZoo::build(&spec).expect("model builds");
    let max_mil = graph.num_layers().min(16);
    let mut points = Vec::new();
    let mut solver_choice = 0usize;
    for mil in 1..=max_mil {
        let outcome = run_sentinel_with(
            &spec,
            SentinelConfig::default().with_mil(mil),
            HmConfig::optane_like(),
            0.3,
            cfg.steps(),
        )
        .expect("sentinel runs");
        if solver_choice == 0 {
            if let Some(sol) = &outcome.mil_solution {
                solver_choice = sol.mil;
            }
        }
        points.push(Point {
            mil,
            step_ns: outcome.report.steady_step_ns(),
            case2: outcome.stats.case2_events,
            case3: outcome.stats.case3_events,
        });
    }
    let best = points.iter().min_by_key(|p| p.step_ns).map(|p| p.mil).unwrap_or(1);
    let mut md = String::from("| MIL (layers) | Step time (ms) | Case 2 | Case 3 |\n|---|---|---|---|\n");
    for p in &points {
        md.push_str(&format!(
            "| {} | {:.2} | {} | {} |\n",
            p.mil,
            p.step_ns as f64 / MILLISECOND as f64,
            p.case2,
            p.case3
        ));
    }
    md.push_str(&format!(
        "\nEmpirical optimum MIL = {best}; solver (Eq. 1/2) chose MIL = {solver_choice} (fast = 30% of peak).\n"
    ));
    ExpResult::new("fig5", "Figure 5 — performance vs migration interval length", md, &points)
}

/// Figure 7: small-batch speedups over slow-only (IAL, AutoTM, Sentinel,
/// fast-only reference line).
#[must_use]
pub fn fig7(cfg: &ExpConfig) -> ExpResult {
    struct Row {
        model: String,
        fast_only: f64,
        ial: f64,
        autotm: f64,
        sentinel: f64,
    }
    sentinel_util::impl_to_json!(Row { model, fast_only, ial, autotm, sentinel });
    let mut rows = Vec::new();
    for spec in cfg.small_batch_models() {
        let slow = run_cpu_baseline(Baseline::SlowOnly, &spec, 0.2, cfg.baseline_steps())
            .expect("runs")
            .expect("applies");
        let slow_ns = slow.steady_step_ns() as f64;
        let speedup = |ns: u64| slow_ns / ns as f64;

        let fast = {
            let graph = ModelZoo::build(&spec).expect("model builds");
            let hm = fast_sized_for(HmConfig::optane_like(), &graph, 1.5);
            run_baseline(Baseline::FastOnly, &graph, &hm, cfg.baseline_steps())
                .expect("runs")
                .expect("applies")
        };
        let ial = run_cpu_baseline(Baseline::Ial, &spec, 0.2, cfg.baseline_steps())
            .expect("runs")
            .expect("applies");
        let autotm = run_cpu_baseline(Baseline::AutoTm, &spec, 0.2, cfg.baseline_steps())
            .expect("runs")
            .expect("applies");
        let sentinel = run_sentinel(&spec, 0.2, cfg.steps()).expect("runs");
        rows.push(Row {
            model: spec.name(),
            fast_only: speedup(fast.steady_step_ns()),
            ial: speedup(ial.steady_step_ns()),
            autotm: speedup(autotm.steady_step_ns()),
            sentinel: speedup(sentinel.report.steady_step_ns()),
        });
    }
    let mut md = String::from(
        "| Model | fast-only (line) | IAL | AutoTM | Sentinel |\n|---|---|---|---|---|\n",
    );
    for r in &rows {
        md.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            r.model,
            fx(r.fast_only),
            fx(r.ial),
            fx(r.autotm),
            fx(r.sentinel)
        ));
    }
    let mean = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    md.push_str(&format!(
        "\nSpeedup over slow-memory-only at fast = 20% of peak. Geo-ish means: Sentinel {}, AutoTM {}, IAL {}; Sentinel reaches {:.0}% of fast-only on average.\n",
        fx(mean(&|r| r.sentinel)),
        fx(mean(&|r| r.autotm)),
        fx(mean(&|r| r.ial)),
        100.0 * mean(&|r| r.sentinel / r.fast_only),
    ));
    ExpResult::new("fig7", "Figure 7 — small-batch speedup over slow-only", md, &rows)
}

/// Figure 8: large-batch performance normalized to first-touch NUMA.
#[must_use]
pub fn fig8(cfg: &ExpConfig) -> ExpResult {
    struct Row {
        model: String,
        memory_mode: f64,
        autotm: f64,
        sentinel: f64,
    }
    sentinel_util::impl_to_json!(Row { model, memory_mode, autotm, sentinel });
    let mut rows = Vec::new();
    for spec in cfg.large_batch_models() {
        let ft = run_cpu_baseline(Baseline::FirstTouch, &spec, 0.2, cfg.baseline_steps())
            .expect("runs")
            .expect("applies");
        let ft_ns = ft.steady_step_ns() as f64;
        let rel = |ns: u64| ft_ns / ns as f64;
        let mm = run_cpu_baseline(Baseline::MemoryModeCache, &spec, 0.2, cfg.baseline_steps())
            .expect("runs")
            .expect("applies");
        let autotm = run_cpu_baseline(Baseline::AutoTm, &spec, 0.2, cfg.baseline_steps())
            .expect("runs")
            .expect("applies");
        let sentinel = run_sentinel(&spec, 0.2, cfg.steps()).expect("runs");
        rows.push(Row {
            model: spec.name(),
            memory_mode: rel(mm.steady_step_ns()),
            autotm: rel(autotm.steady_step_ns()),
            sentinel: rel(sentinel.report.steady_step_ns()),
        });
    }
    let mut md = String::from(
        "| Model | first-touch | Memory Mode | AutoTM | Sentinel |\n|---|---|---|---|---|\n",
    );
    for r in &rows {
        md.push_str(&format!(
            "| {} | 1.00x | {} | {} | {} |\n",
            r.model,
            fx(r.memory_mode),
            fx(r.autotm),
            fx(r.sentinel)
        ));
    }
    md.push_str("\nLarge-batch training throughput normalized to first-touch NUMA (fast = 20% of peak).\n");
    ExpResult::new("fig8", "Figure 8 — large-batch performance vs first-touch NUMA", md, &rows)
}

/// Figure 9: fast/slow memory bandwidth over one training run (ResNet-32),
/// IAL versus Sentinel.
#[must_use]
pub fn fig9(cfg: &ExpConfig) -> ExpResult {
    struct Series {
        policy: String,
        bucket_ms: f64,
        fast_gbps: Vec<f64>,
        slow_gbps: Vec<f64>,
        mean_fast_gbps: f64,
        mean_slow_gbps: f64,
    }
    sentinel_util::impl_to_json!(Series { policy, bucket_ms, fast_gbps, slow_gbps, mean_fast_gbps, mean_slow_gbps });
    let spec = ModelSpec::resnet(32, 64).with_scale(cfg.scale());
    let graph = ModelZoo::build(&spec).expect("model builds");
    let hm = fast_sized_for(HmConfig::optane_like(), &graph, 0.2);
    let bucket = 5 * MILLISECOND;

    let run = |policy: &str| -> Series {
        let mut mem = MemorySystem::new(hm.clone());
        mem.enable_timeline(bucket);
        let mut exec = Executor::new(&graph, mem);
        // Warm up (profiling / plan building), then reset counters so the
        // timeline covers steady state only.
        match policy {
            "ial" => {
                let mut p = sentinel_baselines::Ial::new();
                exec.run_step(&mut p).expect("runs");
                exec.ctx_mut().mem_mut().reset_stats();
                for _ in 0..cfg.baseline_steps() {
                    exec.run_step(&mut p).expect("runs");
                }
            }
            _ => {
                let mut p = SentinelPolicy::new(SentinelConfig::default());
                exec.run_step(&mut p).expect("runs");
                exec.run_step(&mut p).expect("runs");
                exec.ctx_mut().mem_mut().reset_stats();
                for _ in 0..cfg.baseline_steps() {
                    exec.run_step(&mut p).expect("runs");
                }
            }
        }
        let mem = exec.into_mem();
        let tl = mem.timeline().expect("timeline enabled");
        // Trim the leading all-zero region (the reset happens at an absolute
        // timestamp, so earlier buckets are empty).
        let first_active = tl
            .samples()
            .iter()
            .position(|s| s.fast_bytes + s.slow_bytes > 0)
            .unwrap_or(0);
        let active = &tl.samples()[first_active..];
        // Per-sample elapsed widths: the final bucket only spans up to the
        // last recorded access, so its bandwidth uses the actual width.
        let fast: Vec<f64> = active
            .iter()
            .enumerate()
            .map(|(i, s)| s.fast_bw(tl.sample_width(first_active + i)))
            .collect();
        let slow: Vec<f64> = active
            .iter()
            .enumerate()
            .map(|(i, s)| s.slow_bw(tl.sample_width(first_active + i)))
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        Series {
            policy: policy.to_owned(),
            bucket_ms: bucket as f64 / MILLISECOND as f64,
            mean_fast_gbps: mean(&fast),
            mean_slow_gbps: mean(&slow),
            fast_gbps: fast,
            slow_gbps: slow,
        }
    };
    let series = vec![run("ial"), run("sentinel")];
    let mut md = String::from(
        "| Policy | mean fast BW (GB/s) | mean slow BW (GB/s) | samples |\n|---|---|---|---|\n",
    );
    for s in &series {
        md.push_str(&format!(
            "| {} | {:.2} | {:.2} | {} × {:.0} ms |\n",
            s.policy,
            s.mean_fast_gbps,
            s.mean_slow_gbps,
            s.fast_gbps.len(),
            s.bucket_ms
        ));
    }
    let ratio = series[1].mean_fast_gbps / series[0].mean_fast_gbps.max(1e-9);
    md.push_str(&format!(
        "\nSentinel drives {} more fast-memory bandwidth than IAL (full per-bucket series in the JSON payload).\n",
        fx(ratio)
    ));
    ExpResult::new("fig9", "Figure 9 — memory bandwidth during ResNet-32 training", md, &series)
}

/// Figure 10: sensitivity to fast-memory size (20–60% of peak).
#[must_use]
pub fn fig10(cfg: &ExpConfig) -> ExpResult {
    struct Row {
        model: String,
        fractions: Vec<f64>,
        relative_to_fast_only: Vec<f64>,
    }
    sentinel_util::impl_to_json!(Row { model, fractions, relative_to_fast_only });
    let fractions = [0.2, 0.3, 0.4, 0.5, 0.6];
    let specs = cfg.small_batch_models();
    let pool = cfg.pool();
    // Fast-only reference per model, then all model × fast-size cells as one
    // flat fan-out (5 × 5 = 25 independent simulations). Cells are assembled
    // back into rows by index, so bytes are identical at any job count.
    let fast_ns: Vec<f64> = pool.par_map(specs.clone(), |spec| {
        let graph = ModelZoo::build(&spec).expect("model builds");
        let hm = fast_sized_for(HmConfig::optane_like(), &graph, 1.5);
        run_baseline(Baseline::FastOnly, &graph, &hm, cfg.baseline_steps())
            .expect("runs")
            .expect("applies")
            .steady_step_ns() as f64
    });
    let cells: Vec<(usize, f64)> = specs
        .iter()
        .enumerate()
        .flat_map(|(m, _)| fractions.iter().map(move |&f| (m, f)))
        .collect();
    let cell_ns: Vec<f64> = pool.par_map(cells, |(m, f)| {
        let o = run_sentinel(&specs[m], f, cfg.steps()).expect("runs");
        o.report.steady_step_ns() as f64
    });
    let rows: Vec<Row> = specs
        .iter()
        .enumerate()
        .map(|(m, spec)| Row {
            model: spec.name(),
            fractions: fractions.to_vec(),
            relative_to_fast_only: (0..fractions.len())
                .map(|i| cell_ns[m * fractions.len() + i] / fast_ns[m])
                .collect(),
        })
        .collect();
    let mut md = String::from("| Model | 20% | 30% | 40% | 50% | 60% |\n|---|---|---|---|---|---|\n");
    for r in &rows {
        md.push_str(&format!(
            "| {} | {} |\n",
            r.model,
            r.relative_to_fast_only
                .iter()
                .map(|v| format!("{v:.2}x"))
                .collect::<Vec<_>>()
                .join(" | ")
        ));
    }
    md.push_str("\nSentinel step time relative to fast-memory-only (1.00x = parity), as fast size grows from 20% to 60% of peak.\n");
    ExpResult::new("fig10", "Figure 10 — sensitivity to fast-memory size", md, &rows)
}

/// Figure 11: ResNet depth scaling — peak memory vs the minimum fast size
/// at which Sentinel is within 5% of fast-only.
#[must_use]
pub fn fig11(cfg: &ExpConfig) -> ExpResult {
    struct Row {
        depth: u32,
        peak_bytes: u64,
        min_fast_bytes: u64,
        min_fraction: f64,
    }
    sentinel_util::impl_to_json!(Row { depth, peak_bytes, min_fast_bytes, min_fraction });
    let depths: &[u32] = if cfg.fast { &[20, 32, 56] } else { &[20, 32, 56, 110, 50, 101, 152, 200] };
    let mut rows = Vec::new();
    for &depth in depths {
        let spec = ModelSpec::resnet(depth, 16).with_scale(cfg.scale());
        let graph = ModelZoo::build(&spec).expect("model builds");
        let fast_ns = {
            let hm = fast_sized_for(HmConfig::optane_like(), &graph, 1.5);
            run_baseline(Baseline::FastOnly, &graph, &hm, cfg.baseline_steps())
                .expect("runs")
                .expect("applies")
                .steady_step_ns() as f64
        };
        let mut min_fraction = 1.0;
        for &f in &[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
            let o = run_sentinel(&spec, f, cfg.steps()).expect("runs");
            if (o.report.steady_step_ns() as f64) <= 1.05 * fast_ns {
                min_fraction = f;
                break;
            }
        }
        let peak = graph.peak_live_bytes();
        rows.push(Row {
            depth,
            peak_bytes: peak,
            min_fast_bytes: (peak as f64 * min_fraction) as u64,
            min_fraction,
        });
    }
    let mut md = String::from(
        "| ResNet depth | Peak memory | Min fast size (≤5% loss) | Fraction |\n|---|---|---|---|\n",
    );
    for r in &rows {
        md.push_str(&format!(
            "| {} | {} | {} | {:.0}% |\n",
            r.depth,
            mib(r.peak_bytes),
            mib(r.min_fast_bytes),
            r.min_fraction * 100.0
        ));
    }
    md.push_str("\nPeak memory grows with depth while the fast size Sentinel needs grows more slowly.\n");
    ExpResult::new("fig11", "Figure 11 — ResNet scaling: peak memory vs required fast size", md, &rows)
}
