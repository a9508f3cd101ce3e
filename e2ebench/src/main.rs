//! One benchmark for the mmsb workspace's user-visible paths.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <train-resident|train-ooc|simulate-cluster|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's inputs are generated from `--seed`. The run measures
//! for about `--seconds` seconds, checks the program's outputs, prints
//! human-readable lines, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! (observability off) the metrics are the end-to-end set; with
//! `--trace 1` they are the per-layer set, read from the program's own
//! `mmsb-obs` registry in traced segments alternated with untraced ones.
//! A failed output check exits with code 1.

mod layers;
mod serve;
mod stats;
mod train;

use layers::Layers;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The end-to-end metrics every workload reports. The names are shared
/// across workloads; what each one means on a workload is printed above
/// the JSON line and recorded in `BENCHMARK.json`.
#[derive(Debug, Default, Clone, Copy)]
pub struct EndToEnd {
    setup_s: f64,
    rss_peak_mb: f64,
    throughput_per_s: f64,
    latency_p50_ms: f64,
}

impl EndToEnd {
    fn metrics(&self) -> [(&'static str, f64, &'static str); 4] {
        [
            ("setup_s", self.setup_s, "s"),
            ("rss_peak_mb", self.rss_peak_mb, "MB"),
            ("throughput_per_s", self.throughput_per_s, "1/s"),
            ("latency_p50_ms", self.latency_p50_ms, "ms"),
        ]
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    e2e: EndToEnd,
    layers: Option<Layers>,
    attempted: u64,
    failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    failures: Vec<String>,
}

/// Peak resident set size of this process (Linux `VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time of the live threads of this process whose name starts with
/// one of `prefixes`, in ns, from the scheduler's per-thread run time
/// (which leaves out time the hypervisor stole from the vCPUs). Linux
/// truncates thread names to 15 bytes.
pub fn threads_cpu_ns(prefixes: &[&str]) -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm"))
                .is_ok_and(|name| prefixes.iter().any(|p| name.starts_with(p)))
        })
        .filter_map(|e| std::fs::read_to_string(e.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

fn json_metrics(rows: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch files live inside the working directory (the checkout).
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    println!(
        "workload {} seed {} seconds {} trace {} host_cores {} simd {:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        mmsb_simd::Backend::detect()
    );
    let result = match args.workload.as_str() {
        "train-resident" => train::run(train::TrainPath::Resident, &args, &work),
        "train-ooc" => train::run(train::TrainPath::OutOfCore, &args, &work),
        "simulate-cluster" => train::run(train::TrainPath::Simulate, &args, &work),
        "serve-mixed" => serve::run(&args, &work),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };

    let rows: Vec<(&str, f64, &str)> = match &out.layers {
        Some(layers) => {
            println!("per-layer metrics:");
            layers.print();
            layers.all().collect()
        }
        None => {
            for (name, value, unit) in out.e2e.metrics() {
                println!("{name} {value} {unit}");
            }
            out.e2e.metrics().to_vec()
        }
    };
    for (name, value, _) in &rows {
        if !value.is_finite() {
            out.failures.push(format!("metric {name} is not finite"));
        }
    }
    let rows: Vec<(&str, f64, &str)> = rows
        .into_iter()
        .map(|(n, v, u)| (n, if v.is_finite() { v } else { 0.0 }, u))
        .collect();
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = out.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        json_metrics(&rows)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
