//! The three training workloads: the Table 2 CIFAR-10 net through the
//! SGD pool, the ImageNet-1K net at batch 1 under the measured race, and
//! the CIFAR-10 net through the in-process ring all-reduce.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spg_cluster::{Cluster, Transport};
use spg_convnet::data::Dataset;
use spg_convnet::{Engine, EpochStats, Network, Trainer, TrainerConfig};
use spg_core::autotune::{Framework, TuningMode};
use spg_core::config::NetworkDescription;
use spg_workloads::networks;
use spg_workloads::table2::Benchmark;

use crate::layers::{self, LayerMetrics};
use crate::trace::Tracer;
use crate::{stats, Outcome, Run};

/// Epochs per run: with a retune every two epochs, exactly one retune
/// falls between epochs (after epoch 2), so epoch 3 runs on the plans it
/// installed.
const EPOCHS: usize = 3;
const RETUNE_EVERY: usize = 2;
/// Classes of the synthetic data (both nets have at least 10 outputs).
const CLASSES: usize = 10;
const NOISE: f32 = 0.15;

/// One training workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    bench: Benchmark,
    /// Cores the planner plans for.
    cores: usize,
    mode: TuningMode,
    batch: usize,
    /// Sample workers requested from the Trainer.
    workers: usize,
    learning_rate: f32,
    /// Training images per second on the reference host (2 logical cores,
    /// AVX-512), used only to size the run so that it measures about
    /// `--seconds`; the work done is a function of `--seconds` alone.
    sizing_img_s: f64,
    /// Set-ups per run whose median is `setup_s`.
    setup_reps: usize,
    /// Images in the per-layer pass.
    layer_samples: usize,
    /// Timing repetitions of the Unfold+Parallel-GEMM comparison.
    race_reps: usize,
}

/// `train-cifar10`: heuristic plans at cores = 2, as `spgcnn train
/// --threads 2` deploys them.
pub const CIFAR10: TrainSpec = TrainSpec {
    bench: Benchmark::Cifar10,
    cores: 2,
    mode: TuningMode::Heuristic,
    batch: 16,
    workers: 2,
    learning_rate: 0.05,
    sizing_img_s: 500.0,
    setup_reps: 21,
    layer_samples: 64,
    race_reps: 5,
};

/// `train-imagenet1k-b1`: the paper's measure-and-pick planner at batch 1
/// (two workers requested; the Trainer clamps them to one).
pub const IMAGENET1K_B1: TrainSpec = TrainSpec {
    bench: Benchmark::ImageNet1K,
    cores: 2,
    mode: TuningMode::Measured { reps: 1 },
    batch: 1,
    workers: 2,
    // Single-image steps at the default 0.05 diverge: the loss climbs to
    // the cross-entropy clamp within three epochs.
    learning_rate: 0.01,
    sizing_img_s: 2.0,
    setup_reps: 3,
    layer_samples: 2,
    race_reps: 1,
};

impl TrainSpec {
    fn config(&self) -> TrainerConfig {
        TrainerConfig {
            epochs: EPOCHS,
            batch_size: self.batch,
            sample_threads: self.workers,
            learning_rate: self.learning_rate,
            ..TrainerConfig::default()
        }
    }

    /// Images per epoch: a whole number of batches filling `seconds`.
    fn epoch_images(&self, seconds: u64) -> usize {
        let images = self.sizing_img_s * seconds as f64 / EPOCHS as f64;
        let batches = (images / self.batch as f64).ceil().max(1.0);
        // At most a few thousand batches; the cast is exact.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let batches = batches as usize;
        batches * self.batch
    }

    fn data(&self, run: &Run) -> Result<Dataset, String> {
        let desc = description(self.bench)?;
        Ok(Dataset::synthetic(desc.input, CLASSES, self.epoch_images(run.seconds), NOISE, run.seed))
    }

    /// Threads the workload keeps busy at once.
    pub fn threads(&self) -> usize {
        self.workers.min(self.batch).max(self.cores)
    }

    pub fn first_conv(&self) -> spg_convnet::ConvSpec {
        self.bench.conv_layers()[0]
    }
}

fn description(bench: Benchmark) -> Result<NetworkDescription, String> {
    NetworkDescription::parse(&networks::description(bench)).map_err(|e| e.to_string())
}

/// Parses the Table 2 description and builds it with `seed`'s weights.
fn build(
    bench: Benchmark,
    seed: u64,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<Network, String> {
    let _s = tracer.span(|| "workloads.build".into(), parent);
    description(bench)?.build(seed).map_err(|e| e.to_string())
}

/// One timed set-up: build, plan (the measured race in measured mode)
/// through `Engine::try_tune`, ready for the first timed image.
fn setup(spec: &TrainSpec, run: &Run) -> Result<(Engine, Arc<Framework>, Duration), String> {
    let start = Instant::now();
    let top = run.tracer.span(|| "setup".into(), None);
    let net = build(spec.bench, run.seed, run.tracer, top.id())?;
    let framework = Arc::new(Framework::new(spec.cores, spec.mode, RETUNE_EVERY));
    let mut engine = Engine::builder()
        .network(net)
        .planner(framework.clone())
        .trainer(spec.config())
        .build()
        .map_err(|e| e.to_string())?;
    {
        let _s = run.tracer.span(|| "autotune.plan".into(), top.id());
        engine.try_tune(0.0).map_err(|e| e.to_string())?;
    }
    Ok((engine, framework, start.elapsed()))
}

/// What one timed training region produced.
struct Trained {
    stats: Vec<EpochStats>,
    wall: Duration,
    retune: Duration,
}

/// Drives `Trainer::try_train_with` with the framework's retune as the
/// epoch callback — what `Engine::try_train` does, minus its re-plan on
/// entry, which the set-up already paid.
fn train(
    spec: &TrainSpec,
    engine: &mut Engine,
    framework: &Framework,
    data: &mut Dataset,
    tracer: &Tracer,
) -> Result<Trained, String> {
    let top = tracer.span(|| "sgd.train".into(), None);
    let trainer = Trainer::new(spec.config());
    let mut retune = Duration::ZERO;
    let start = Instant::now();
    let mut epoch_start = start;
    let stats = trainer
        .try_train_with(engine.network_mut(), data, |net, stats| {
            let now = Instant::now();
            tracer.record("sgd.epoch", top.id(), None, epoch_start, now);
            let _s = tracer.span(|| "autotune.retune".into(), top.id());
            framework.retune(net, stats);
            epoch_start = Instant::now();
            retune += epoch_start - now;
        })
        .map_err(|e| e.to_string())?;
    Ok(Trained { stats, wall: start.elapsed(), retune })
}

/// The end-to-end metrics shared by every training workload.
fn train_metrics(
    spec: &TrainSpec,
    t: &Trained,
    images_per_epoch: usize,
    setup_s: f64,
) -> Vec<(&'static str, f64)> {
    let steps = (images_per_epoch / spec.batch).max(1) as f64;
    let step_ms: Vec<f64> =
        t.stats.iter().map(|s| images_per_epoch as f64 / s.images_per_sec * 1e3 / steps).collect();
    let images = (images_per_epoch * t.stats.len()) as f64;
    vec![
        ("setup_s", setup_s),
        ("throughput_per_s", images / t.wall.as_secs_f64()),
        ("latency_ms", stats::median(&step_ms)),
        ("loss_final", t.stats.last().map_or(f64::NAN, |s| s.mean_loss)),
    ]
}

fn count_bad_epochs(stats: &[EpochStats]) -> u64 {
    stats.iter().filter(|s| !s.mean_loss.is_finite()).count() as u64
}

/// `train-cifar10` and `train-imagenet1k-b1`.
pub fn run_pool(spec: &TrainSpec, run: &Run) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(spec.setup_reps);
    let mut ready = None;
    let reps = if run.tracer.enabled() { 1 } else { spec.setup_reps };
    for rep in 0..reps {
        crate::space_setup(rep);
        // Drop the previous engine first so peak memory holds one net.
        drop(ready.take());
        let (engine, framework, took) = setup(spec, run)?;
        setups.push(took.as_secs_f64());
        ready = Some((engine, framework));
    }
    let (mut engine, framework) = ready.expect("at least one set-up ran");
    let mut data = spec.data(run)?;
    let images_per_epoch = data.len();
    let pristine = data.clone();

    let mut out = Outcome::new(EPOCHS as u64);
    if !run.tracer.enabled() {
        let t = train(spec, &mut engine, &framework, &mut data, run.tracer)?;
        out.failed = count_bad_epochs(&t.stats);
        out.note_setups(&setups);
        out.e2e = train_metrics(spec, &t, images_per_epoch, stats::median(&setups));
        out.note(format!(
            "epoch losses {:?}",
            t.stats.iter().map(|s| s.mean_loss).collect::<Vec<_>>()
        ));
        return Ok(out);
    }

    // Traced run: the same region untraced on a fresh set-up, then traced,
    // gives the tracing overhead; the traced one feeds the layer pass.
    let quiet = Tracer::new(false);
    let quiet_run = Run { tracer: &quiet, ..*run };
    let (mut engine0, framework0, _) = setup(spec, &quiet_run)?;
    let t0 = train(spec, &mut engine0, &framework0, &mut pristine.clone(), &quiet)?;
    drop(engine0);
    let t = train(spec, &mut engine, &framework, &mut data, run.tracer)?;
    out.failed = count_bad_epochs(&t.stats) + count_bad_epochs(&t0.stats);
    out.layer.insert("trace.overhead_pct".into(), overhead_pct(t0.wall, t.wall));
    per_layer_train(spec, engine.network_mut(), &pristine, &t, run, &mut out.layer);
    Ok(out)
}

fn overhead_pct(untraced: Duration, traced: Duration) -> f64 {
    (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0
}

/// The layer pass plus the autotune and SGD remainder metrics.
fn per_layer_train(
    spec: &TrainSpec,
    net: &mut Network,
    data: &Dataset,
    t: &Trained,
    run: &Run,
    out: &mut LayerMetrics,
) {
    let spans = run.tracer.spans();
    let sum_ms = |name: &str| -> f64 {
        spans.iter().filter(|s| s.name == name).map(|s| s.dur().as_secs_f64() * 1e3).sum()
    };
    out.insert("autotune.plan_ms".into(), sum_ms("autotune.plan"));
    out.insert("autotune.retune_ms".into(), sum_ms("autotune.retune"));
    let top = run.tracer.span(|| "layers".into(), None);
    let summary = layers::pass(
        net,
        data,
        spec.layer_samples,
        true,
        spec.cores,
        spec.race_reps,
        run.tracer,
        top.id(),
        out,
    );
    let images = (data.len() * t.stats.len()) as f64;
    let wall_per_img = (t.wall - t.retune).as_secs_f64() * 1e3 / images;
    let active = spec.workers.min(spec.batch).max(1) as f64;
    out.insert(
        "sgd.unattributed_ms_per_img".into(),
        wall_per_img - summary.layer_ms_per_img / active - summary.update_ms / spec.batch as f64,
    );
}

/// `train-cifar10-ring`: the CIFAR-10 data, batch and trainer config,
/// without retune, through `Cluster::train` over two in-process ranks,
/// checked bit for bit against the SGD pool on the same factory network.
pub fn run_ring(run: &Run) -> Result<Outcome, String> {
    let spec = CIFAR10;
    let seed = run.seed;
    // Each rank builds its own copy with the plans the pool reference gets.
    let factory = move || -> Result<Network, spg_error::Error> {
        let bad = |m: String| spg_error::Error::new(spg_error::ErrorKind::InvalidNetwork, m);
        let mut net =
            description(spec.bench).map_err(bad)?.build(seed).map_err(|e| bad(e.to_string()))?;
        Framework::new(spec.cores, spec.mode, RETUNE_EVERY)
            .try_plan_network(&mut net, 0.0)
            .map_err(|e| bad(e.to_string()))?;
        Ok(net)
    };

    let mut setups = Vec::new();
    let mut cluster = None;
    let reps = if run.tracer.enabled() { 1 } else { spec.setup_reps };
    for rep in 0..reps {
        crate::space_setup(rep);
        let start = Instant::now();
        let top = run.tracer.span(|| "setup".into(), None);
        {
            let _s = run.tracer.span(|| "autotune.plan".into(), top.id());
            drop(factory().map_err(|e| e.to_string())?);
        }
        let _s = run.tracer.span(|| "cluster.build".into(), top.id());
        cluster = Some(
            Cluster::builder()
                .shards(2)
                .transport(Transport::InProc)
                .factory(factory)
                .build()
                .map_err(|e| e.to_string())?,
        );
        setups.push(start.elapsed().as_secs_f64());
    }
    let cluster = cluster.expect("at least one set-up ran");
    let data = spec.data(run)?;
    let images_per_epoch = data.len();
    let config = spec.config();

    // The pool reference, outside every timed region.
    let mut ref_net = factory().map_err(|e| e.to_string())?;
    let pool_start = Instant::now();
    let reference = Trainer::new(config.clone())
        .try_train(&mut ref_net, &mut data.clone())
        .map_err(|e| e.to_string())?;
    let pool_wall = pool_start.elapsed();

    let ring_start = Instant::now();
    let ring = {
        let _s = run.tracer.span(|| "cluster.train".into(), None);
        cluster.train(&data, &config).map_err(|e| e.to_string())?
    };
    let wall = ring_start.elapsed();

    let mut out = Outcome::new(EPOCHS as u64);
    let mismatched = reference
        .iter()
        .zip(&ring)
        .filter(|(p, r)| p.mean_loss.to_bits() != r.mean_loss.to_bits() || !r.mean_loss.is_finite())
        .count()
        + EPOCHS.saturating_sub(ring.len().min(reference.len()));
    out.failed = mismatched as u64;
    let t = Trained { stats: ring, wall, retune: Duration::ZERO };
    if !run.tracer.enabled() {
        out.note_setups(&setups);
        out.e2e = train_metrics(&spec, &t, images_per_epoch, stats::median(&setups));
        out.note(format!(
            "pool wall {:.3} s, ring wall {:.3} s",
            pool_wall.as_secs_f64(),
            wall.as_secs_f64()
        ));
        return Ok(out);
    }

    let again = Instant::now();
    let untraced = cluster.train(&data, &config).map_err(|e| e.to_string())?;
    let untraced_wall = again.elapsed();
    out.failed += untraced
        .iter()
        .zip(&reference)
        .filter(|(u, p)| u.mean_loss.to_bits() != p.mean_loss.to_bits())
        .count() as u64;
    out.layer.insert("trace.overhead_pct".into(), overhead_pct(untraced_wall, wall));
    let batches = (images_per_epoch / spec.batch * EPOCHS) as f64;
    out.layer.insert(
        "cluster.exchange_ms_per_batch".into(),
        (wall.as_secs_f64() - pool_wall.as_secs_f64()) * 1e3 / batches,
    );
    // A ring all-reduce of G gradient floats sends 2 (W - 1) / W * G
    // floats from each of its W ranks per batch: 2 G in all for W = 2.
    let params: usize = ref_net.layers().iter().map(|l| l.param_count()).sum();
    out.layer.insert("cluster.bytes_per_batch".into(), (2 * params * 4) as f64);
    per_layer_train(&spec, &mut ref_net, &data, &t, run, &mut out.layer);
    Ok(out)
}
