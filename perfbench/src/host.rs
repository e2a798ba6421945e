//! The host block every benchmark output carries, and process memory.

use spg_convnet::ConvSpec;

use crate::json;

/// Logical cores the process may use.
pub fn logical_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The host block as a JSON object: logical cores, the ISA the codegen
/// registry resolves for `spec`, whether `SPG_FORCE_GENERIC` is set, the
/// rustc version and git revision the runner passed in, and whether the
/// workload's concurrent threads (`threads`) exceed the logical cores.
pub fn block(spec: &ConvSpec, threads: usize) -> String {
    let cores = logical_cores();
    let isa = spg_codegen::lookup(spec).map_or("generic", |k| k.isa().name());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    json::object(&[
        ("logical_cores", cores.to_string()),
        ("simd_level", json::string(&format!("{:?}", spg_gemm::detect_simd_level()))),
        ("codegen_isa", json::string(isa)),
        ("spg_force_generic", spg_codegen::force_generic().to_string()),
        ("rustc", json::string(&env("PERFBENCH_RUSTC"))),
        ("git_rev", json::string(&env("PERFBENCH_GIT_REV"))),
        ("workload_threads", threads.to_string()),
        ("oversubscribed", (threads > cores).to_string()),
    ])
}

/// Peak resident set size (`VmHWM`) of this process in MB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
