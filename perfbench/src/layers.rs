//! The per-layer pass of the traced run.
//!
//! It calls each layer's public `Layer::forward` / `Layer::backward` on
//! the workload's own samples, with the plans the run installed, inside
//! one span per call, then derives the per-layer metrics from those
//! spans. Convolution layers are also raced against Unfold+Parallel-GEMM
//! with `measure_technique`, the paper's Fig. 8 baseline.

use std::collections::BTreeMap;
use std::time::Duration;

use spg_convnet::data::Dataset;
use spg_convnet::{scope_label, ConvScratch, Network};
use spg_core::autotune::{measure_technique, Phase};
use spg_core::schedule::Technique;
use spg_tensor::Tensor;

use crate::trace::Tracer;

/// Per-layer metric values by name (see [`crate::PER_LAYER`]).
pub type LayerMetrics = BTreeMap<String, f64>;

/// Which layer group a label belongs to in the metric names.
fn group(label: &str) -> String {
    if label.starts_with("conv") || label.starts_with("fc") {
        label.to_string()
    } else {
        "other".to_string()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one layer pass measured.
#[derive(Debug, Default)]
pub struct PassSummary {
    /// Per-image layer time summed over every layer, both phases (ms).
    pub layer_ms_per_img: f64,
    /// Time of one `apply_gradient_slices` call (ms); 0 for forward-only.
    pub update_ms: f64,
}

/// Runs `samples` images of `data` through `net` layer by layer (and
/// back, when `backward`), then one SGD update, recording a span per
/// call under `parent`, and writes the per-layer metrics into `out`.
/// `cores` is the core count the workload planned for, used for the
/// Unfold+Parallel-GEMM comparison; `reps` its timing repetitions.
#[allow(clippy::too_many_arguments)]
pub fn pass(
    net: &mut Network,
    data: &Dataset,
    samples: usize,
    backward: bool,
    cores: usize,
    reps: usize,
    tracer: &Tracer,
    parent: Option<u64>,
    out: &mut LayerMetrics,
) -> PassSummary {
    let labels: Vec<String> =
        net.layers().iter().enumerate().map(|(i, l)| scope_label(i, l.name())).collect();
    let n = net.layers().len();
    let mut acts: Vec<Vec<f32>> = vec![vec![0.0; net.input_len()]];
    acts.extend(net.layers().iter().map(|l| vec![0.0; l.output_len()]));
    let mut grads: Vec<Vec<f32>> = net.layers().iter().map(|l| vec![0.0; l.input_len()]).collect();
    let mut params: Vec<Tensor> =
        net.layers().iter().map(|l| Tensor::zeros(l.param_count())).collect();
    let mut scratch = ConvScratch::new();
    let mut nonzero = vec![0usize; n];
    let mut entries = vec![0usize; n];

    let samples = samples.min(data.len()).max(1);
    // Sample 0 runs twice: first untraced, so scratch growth and cold
    // caches stay out of the per-layer times.
    for (round, i) in std::iter::once(0).chain(0..samples).enumerate() {
        let traced = round > 0;
        let span = |label: &str, phase: &str| {
            traced.then(|| tracer.span(|| format!("{label}.{phase}"), parent))
        };
        acts[0].copy_from_slice(data.image(i).as_slice());
        for l in 0..n {
            let (head, tail) = acts.split_at_mut(l + 1);
            let _s = span(&labels[l], "fwd");
            net.layers()[l].forward(&head[l], &mut tail[0], &mut scratch);
        }
        if !backward {
            continue;
        }
        let logits = Tensor::from_vec(acts[n].clone());
        let (_, loss_grad) = Network::loss_and_gradient(&logits, data.label(i));
        let mut grad_out = loss_grad.into_vec();
        for l in (0..n).rev() {
            if traced {
                entries[l] += grad_out.len();
                nonzero[l] += grad_out.iter().filter(|v| **v != 0.0).count();
            }
            let s = span(&labels[l], "bwd");
            net.layers()[l].backward(
                &acts[l],
                &acts[l + 1],
                &grad_out,
                &mut grads[l],
                &mut params[l],
                &mut scratch,
            );
            drop(s);
            grad_out.clear();
            grad_out.extend_from_slice(&grads[l]);
        }
    }

    let mut summary = PassSummary::default();
    if backward {
        let _s = tracer.span(|| "sgd.update".into(), parent);
        let start = std::time::Instant::now();
        // A zero learning rate does the update's full memory traffic but
        // leaves the trained weights as the run left them.
        net.apply_gradient_slices(&params, 0.0, samples as f32);
        summary.update_ms = ms(start.elapsed());
        out.insert("sgd.update_ms".into(), summary.update_ms);
    }

    // Per-layer means from the spans this pass recorded.
    let spans = tracer.spans();
    let mut per_group: BTreeMap<String, f64> = BTreeMap::new();
    for label in &labels {
        for phase in ["fwd", "bwd"] {
            let name = format!("{label}.{phase}");
            let total: Duration = spans
                .iter()
                .filter(|s| s.parent == parent && s.name == name)
                .map(|s| s.dur())
                .sum();
            let per_img = ms(total) / samples as f64;
            summary.layer_ms_per_img += per_img;
            *per_group.entry(format!("{}.{phase}_ms", group(label))).or_default() += per_img;
        }
    }
    out.extend(per_group);

    for (l, label) in labels.iter().enumerate() {
        let Some(spec) = net.layers()[l].conv_spec().copied() else { continue };
        let fwd_ms = out.get(&format!("{label}.fwd_ms")).copied().unwrap_or(0.0);
        let gflop = spec.arithmetic_ops() as f64 / 1e9;
        if fwd_ms > 0.0 {
            out.insert(format!("{label}.fwd_gflops"), gflop / (fwd_ms / 1e3));
        }
        let conv = net.layers_mut()[l].as_conv_mut().expect("conv_spec implies a conv layer");
        let (fwd_name, bwd_name) = conv.executor_names();
        let _race = tracer.span(|| format!("{label}.vs_unfold"), parent);
        if let Some(fwd) = technique(&fwd_name) {
            out.insert(
                format!("{label}.fwd_vs_unfold"),
                vs_unfold(&spec, fwd, Phase::Forward, 0.0, cores, reps),
            );
        }
        if backward && entries[l] > 0 {
            let density = nonzero[l] as f64 / entries[l] as f64;
            let bwd_ms = out.get(&format!("{label}.bwd_ms")).copied().unwrap_or(0.0);
            out.insert(format!("{label}.bwd_density"), density);
            if bwd_ms > 0.0 {
                out.insert(
                    format!("{label}.bwd_goodput_gflops"),
                    density * 2.0 * gflop / (bwd_ms / 1e3),
                );
            }
            if let Some(bwd) = technique(&bwd_name) {
                out.insert(
                    format!("{label}.bwd_vs_unfold"),
                    vs_unfold(&spec, bwd, Phase::Backward, 1.0 - density, cores, reps),
                );
            }
        }
    }
    summary
}

/// The technique behind an executor name; `None` for an executor no
/// technique builds (its ratio is then not reported).
fn technique(executor: &str) -> Option<Technique> {
    match executor {
        "unfold+parallel-gemm" => Some(Technique::ParallelGemm),
        "unfold+gemm" => Some(Technique::GemmInParallel),
        name => Technique::forward_candidates()
            .iter()
            .chain(Technique::backward_candidates())
            .copied()
            .find(|t| t.id() == name),
    }
}

/// Unfold+Parallel-GEMM time over the installed technique's time.
fn vs_unfold(
    spec: &spg_convnet::ConvSpec,
    installed: Technique,
    phase: Phase,
    sparsity: f64,
    cores: usize,
    reps: usize,
) -> f64 {
    let base = measure_technique(spec, Technique::ParallelGemm, phase, sparsity, cores, reps);
    let mine = measure_technique(spec, installed, phase, sparsity, cores, reps);
    base.as_secs_f64() / mine.as_secs_f64().max(1e-9)
}
