//! End-to-end and per-layer benchmark of spg-cnn training and serving.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `train-cifar10`, `train-imagenet1k-b1`, `serve-cifar10`,
//! `train-cifar10-ring` (see `README.md` beside this crate for why each
//! was chosen). With `--trace 0` the run prints the end-to-end metrics;
//! with `--trace 1` it records spans around every call it makes into the
//! program, writes them as Chrome trace-event JSON under `.bench_out/`,
//! and prints the per-layer metrics derived from them. The last line of
//! standard output is always one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! non-zero when a correctness gate failed.

mod host;
mod json;
mod layers;
mod load;
mod serve;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;

use trace::Tracer;

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("loss_final", "nats"),
    ("peak_rss_mb", "MB"),
];

/// Conv layers by `scope_label`: CIFAR-10 has the first two,
/// ImageNet-1K all four.
const CONVS: [&str; 4] = ["conv0", "conv3", "conv7", "conv10"];
const CONV_METRICS: [(&str, &str); 7] = [
    ("fwd_ms", "ms"),
    ("fwd_gflops", "GFLOP/s"),
    ("bwd_ms", "ms"),
    ("bwd_goodput_gflops", "GFLOP/s"),
    ("bwd_density", "ratio"),
    ("fwd_vs_unfold", "ratio"),
    ("bwd_vs_unfold", "ratio"),
];
const FCS: [&str; 3] = ["fc5", "fc12", "fc14"];
const OTHER_METRICS: [(&str, &str); 19] = [
    ("other.fwd_ms", "ms"),
    ("other.bwd_ms", "ms"),
    ("autotune.plan_ms", "ms"),
    ("autotune.retune_ms", "ms"),
    ("sgd.update_ms", "ms"),
    ("sgd.unattributed_ms_per_img", "ms"),
    ("serve.lo.p99_ms", "ms"),
    ("serve.hi.p50_ms", "ms"),
    ("serve.hi.p99_ms", "ms"),
    ("serve.max_rps_p99_20ms", "1/s"),
    ("serve.sustained_rps", "1/s"),
    ("serve.lo.batch_mean", "req"),
    ("serve.hi.batch_mean", "req"),
    ("serve.hi.server_p99_ms", "ms"),
    ("serve.hi.gen_lag_p99_ms", "ms"),
    ("serve.admit_us_p99", "us"),
    ("serve.rejected", "count"),
    ("cluster.exchange_ms_per_batch", "ms"),
    ("cluster.bytes_per_batch", "B"),
];

/// Every per-layer metric with its unit, in report order. A workload
/// without the layer a metric names reports 0 for it.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut all = Vec::new();
    for conv in CONVS {
        for (m, unit) in CONV_METRICS {
            all.push((format!("{conv}.{m}"), unit));
        }
    }
    for fc in FCS {
        all.push((format!("{fc}.fwd_ms"), "ms"));
        all.push((format!("{fc}.bwd_ms"), "ms"));
    }
    all.extend(OTHER_METRICS.iter().map(|(n, u)| ((*n).to_string(), *u)));
    all.push(("trace.overhead_pct".to_string(), "%"));
    all
}

/// Pause before every set-up but the first. The host's speed switches
/// between states lasting milliseconds to seconds; spreading the set-ups
/// of one run over a few seconds lets their median span those states
/// instead of sampling whichever one the run started in.
const SETUP_SPACING: std::time::Duration = std::time::Duration::from_millis(100);

/// Waits [`SETUP_SPACING`] unless `rep` is the first set-up.
pub fn space_setup(rep: usize) {
    if rep > 0 {
        std::thread::sleep(SETUP_SPACING);
    }
}

/// Parameters of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// Seed of the inputs, the weights and the arrival schedule.
    pub seed: u64,
    /// How long the timed region should measure.
    pub seconds: u64,
    /// Span recorder (disabled unless `--trace 1`).
    pub tracer: &'a Tracer,
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (epochs or requests).
    pub attempted: u64,
    /// Operations that failed a correctness gate.
    pub failed: u64,
    /// End-to-end metrics except `peak_rss_mb` (untraced runs).
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics (traced runs).
    pub layer: layers::LayerMetrics,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    fn new(attempted: u64) -> Self {
        Outcome { attempted, ..Outcome::default() }
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Notes the median and quartiles of the per-run set-up times.
    fn note_setups(&mut self, setups: &[f64]) {
        let spread = if setups.len() >= 2 {
            let [q1, _, q3] = stats::quartiles(setups);
            format!(", q1 {q1:.4} s, q3 {q3:.4} s")
        } else {
            String::new()
        };
        self.note(format!(
            "setup_s median {:.4} s over {} set-ups{spread}",
            stats::median(setups),
            setups.len()
        ));
    }
}

/// Workloads `BENCHMARK.json` gates on.
const GATED: [&str; 3] = ["train-cifar10", "serve-cifar10", "train-cifar10-ring"];
/// Runs for reference only: ten runs of its ~50 s each spread 22 % on the
/// reference host, as its speed drifted over the eight minutes they took.
const UNGATED: [&str; 1] = ["train-imagenet1k-b1"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == key).ok_or(format!("missing {key}"))?;
        argv.get(i + 1).cloned().ok_or(format!("missing value after {key}"))
    };
    let workload = value("--workload")?;
    if !GATED.contains(&workload.as_str()) && !UNGATED.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {GATED:?} {UNGATED:?})"
        ));
    }
    let number = |key: &str| -> Result<u64, String> {
        value(key)?.parse().map_err(|e| format!("{key}: {e}"))
    };
    let seconds = number("--seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let run = Run { seed: args.seed, seconds: args.seconds, tracer: &tracer };
    let (result, threads, first_conv) = match args.workload.as_str() {
        "train-cifar10" => (
            train::run_pool(&train::CIFAR10, &run),
            train::CIFAR10.threads(),
            train::CIFAR10.first_conv(),
        ),
        "train-imagenet1k-b1" => (
            train::run_pool(&train::IMAGENET1K_B1, &run),
            train::IMAGENET1K_B1.threads(),
            train::IMAGENET1K_B1.first_conv(),
        ),
        "serve-cifar10" => (serve::run(&run), serve::THREADS, train::CIFAR10.first_conv()),
        _ => (train::run_ring(&run), 2, train::CIFAR10.first_conv()),
    };
    let host = host::block(&first_conv, threads);
    println!(
        "{}",
        json::object(&[("workload", json::string(&args.workload)), ("host", host.clone())])
    );
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.notes {
        eprintln!("{}: {line}", args.workload);
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        for (name, unit) in per_layer() {
            let v = outcome.layer.get(&name).copied().unwrap_or(0.0);
            metrics.push((name, v, unit));
        }
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let meta = json::object(&[("workload", json::string(&args.workload)), ("host", host)]);
        match std::fs::create_dir_all(dir).and_then(|()| tracer.write_chrome(&path, &meta)) {
            Ok(()) => eprintln!("{}: trace written to {}", args.workload, path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        let rss = host::peak_rss_mb().unwrap_or(f64::NAN);
        for (name, unit) in END_TO_END {
            let v = if name == "peak_rss_mb" {
                rss
            } else {
                outcome.e2e.iter().find(|(n, _)| *n == name).map_or(f64::NAN, |(_, v)| *v)
            };
            metrics.push((name.to_string(), v, unit));
        }
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = outcome.failed == 0 && finite;
    let body: Vec<(&str, String)> = metrics
        .iter()
        .map(|(n, v, u)| {
            (n.as_str(), json::object(&[("value", json::number(*v)), ("unit", json::string(u))]))
        })
        .collect();
    println!(
        "{}",
        json::object(&[
            ("correct", correct.to_string()),
            ("attempted", outcome.attempted.to_string()),
            ("failed", outcome.failed.to_string()),
            ("metrics", json::object(&body)),
        ])
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units, and the gated workloads.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        let compact: String = text.split_whitespace().collect();
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit) in per_layer() {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches("\"name\":").count(),
            END_TO_END.len() + per_layer().len() + GATED.len()
        );
        for w in GATED {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
    }
}
