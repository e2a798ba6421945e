//! Mini-batch SGD training loop with cross-sample parallelism and the
//! instrumentation the paper's experiments need.
//!
//! The trainer's `sample_threads` knob *is* the GEMM-in-Parallel schedule
//! at the training-loop level: each worker thread pushes whole samples
//! through the shared network with single-threaded kernels, instead of
//! every sample's GEMM being partitioned across all cores (Sec. 4.1).
//!
//! Workers are *persistent*: one pool is spawned for the whole training
//! run, each worker owning one [`Workspace`] it reuses for every sample it
//! ever processes. Sample `j` of a batch always goes to worker
//! `j % workers` and results are merged in exact sample order, so the
//! f32 gradient accumulation is bit-identical for every worker count.
//!
//! The pool is *supervised*: each worker runs every sample inside
//! [`std::panic::catch_unwind`], so a panicking kernel reports a fault
//! instead of poisoning the shared locks. The main thread respawns the
//! crashed worker with a fresh [`Workspace`], replays the lost samples in
//! order (preserving bit-identical merges), and only fails the run with a
//! typed [`TrainError::WorkerFault`] once
//! [`TrainerConfig::restart_budget`] is spent.
//!
//! The per-batch arithmetic lives here once, as public items that the
//! inline path, the pool and `spg-cluster`'s training ranks all call:
//! [`process_sample`] (forward + backward), [`BatchAcc`] (the in-order
//! batch fold), [`apply_batch`] (the update expression), [`EpochAcc`]
//! (epoch statistics) and [`shuffle_for_epoch`] (the shuffle schedule).
//! The distributed ranks differ from the pool only in *where* the fold
//! runs — inside the ring all-reduce, still in global sample order — so
//! every path produces the same bits.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::RwLock;
use std::time::{Duration, Instant};

use spg_sync::{FaultInjector, FaultPlan};
use spg_tensor::Tensor;

use crate::data::Dataset;
use crate::error::TrainError;
use crate::net::Network;
use crate::workspace::Workspace;

/// Configuration for [`Trainer`].
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient in `[0, 1)`; `0.0` is plain SGD. The update
    /// is `v = momentum * v + grad; params -= lr * v`.
    pub momentum: f32,
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Samples per parameter update.
    pub batch_size: usize,
    /// Worker threads processing samples concurrently (GEMM-in-Parallel);
    /// `1` processes samples sequentially.
    pub sample_threads: usize,
    /// Seed for per-epoch dataset shuffling.
    pub shuffle_seed: u64,
    /// How many times a crashed pool worker is respawned (with a fresh
    /// [`Workspace`]) before the run fails with
    /// [`TrainError::WorkerFault`]. Per worker slot, not global.
    pub restart_budget: usize,
    /// Base delay before the first respawn; doubles per consecutive
    /// restart of the same worker (capped at one second).
    pub restart_backoff: Duration,
    /// Deterministic fault to inject for supervision testing. Inert
    /// unless the `fault-injection` cargo feature is enabled; forces the
    /// pooled path even when `sample_threads == 1`.
    pub fault_plan: Option<FaultPlan>,
}

impl TrainerConfig {
    /// Checks the invariants every training path relies on: positive
    /// batch size, epoch count and sample thread count, and momentum in
    /// `[0, 1)`.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_size == 0 {
            return Err("batch size must be positive".to_string());
        }
        if self.epochs == 0 {
            return Err("epoch count must be positive".to_string());
        }
        if self.sample_threads == 0 {
            return Err("sample thread count must be positive".to_string());
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(format!("momentum must be in [0, 1), got {}", self.momentum));
        }
        Ok(())
    }
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            learning_rate: 0.05,
            momentum: 0.0,
            epochs: 5,
            batch_size: 8,
            sample_threads: 1,
            shuffle_seed: 0x5b9c,
            restart_budget: 2,
            restart_backoff: Duration::from_millis(1),
            fault_plan: None,
        }
    }
}

/// Metrics recorded for one training epoch.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index, starting at 1 (matching the paper's Fig. 3b axis).
    pub epoch: usize,
    /// Mean cross-entropy loss over the epoch.
    pub mean_loss: f64,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
    /// Mean sparsity of the error gradient entering each *conv* layer's
    /// backward pass, in network order — the Fig. 3b series.
    pub conv_grad_sparsity: Vec<f64>,
    /// Training throughput in images per second.
    pub images_per_sec: f64,
}

/// Mini-batch SGD driver.
///
/// # Example
///
/// ```
/// use rand::{SeedableRng, rngs::SmallRng};
/// use spg_convnet::data::Dataset;
/// use spg_convnet::layer::{FcLayer, ReluLayer};
/// use spg_convnet::{Network, Trainer, TrainerConfig};
/// use spg_tensor::Shape3;
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut net = Network::new(vec![
///     Box::new(FcLayer::new(16, 8, &mut rng)),
///     Box::new(ReluLayer::new(8)),
///     Box::new(FcLayer::new(8, 2, &mut rng)),
/// ])?;
/// let mut data = Dataset::synthetic(Shape3::new(1, 4, 4), 2, 12, 0.1, 1);
/// let stats = Trainer::new(TrainerConfig { epochs: 2, ..Default::default() })
///     .train(&mut net, &mut data);
/// assert_eq!(stats.len(), 2);
/// # Ok::<(), spg_convnet::ConvError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`TrainerConfig::validate`] rejects `config`.
    pub fn new(config: TrainerConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        Trainer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Trains the network, returning one [`EpochStats`] per epoch.
    ///
    /// # Panics
    ///
    /// Panics if a pool worker crashes past its restart budget; use
    /// [`try_train`](Self::try_train) for a typed error instead.
    pub fn train(&self, net: &mut Network, data: &mut Dataset) -> Vec<EpochStats> {
        self.train_with(net, data, |_, _| {})
    }

    /// Fallible [`train`](Self::train): a pool worker crashing past the
    /// restart budget surfaces as [`TrainError::WorkerFault`] instead of
    /// a panic.
    ///
    /// # Errors
    ///
    /// [`TrainError::WorkerFault`] when a worker panicked and the
    /// supervisor's restart budget was already spent.
    pub fn try_train(
        &self,
        net: &mut Network,
        data: &mut Dataset,
    ) -> Result<Vec<EpochStats>, TrainError> {
        self.try_train_with(net, data, |_, _| {})
    }

    /// Trains with a per-epoch callback (used by the autotuner to re-plan
    /// backward executors as gradient sparsity drifts, Sec. 4.4).
    ///
    /// # Panics
    ///
    /// Panics if a pool worker crashes past its restart budget; use
    /// [`try_train_with`](Self::try_train_with) for a typed error.
    pub fn train_with<F>(
        &self,
        net: &mut Network,
        data: &mut Dataset,
        after_epoch: F,
    ) -> Vec<EpochStats>
    where
        F: FnMut(&mut Network, &EpochStats),
    {
        match self.try_train_with(net, data, after_epoch) {
            Ok(stats) => stats,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`train_with`](Self::train_with).
    ///
    /// # Errors
    ///
    /// [`TrainError::WorkerFault`] when a worker panicked and the
    /// supervisor's restart budget was already spent.
    pub fn try_train_with<F>(
        &self,
        net: &mut Network,
        data: &mut Dataset,
        after_epoch: F,
    ) -> Result<Vec<EpochStats>, TrainError>
    where
        F: FnMut(&mut Network, &EpochStats),
    {
        // The supervision machinery (and with it fault injection) lives
        // in the pooled path; a configured fault plan forces it so that
        // `--inject-fault` is never a silent no-op at one thread.
        if self.config.sample_threads == 1 && self.config.fault_plan.is_none() {
            Ok(self.train_inline(net, data, after_epoch))
        } else {
            self.train_pooled(net, data, after_epoch)
        }
    }

    /// Single-threaded training: one long-lived [`Workspace`] serves every
    /// sample, and batches merge in sample order — the same arithmetic as
    /// the pooled path with any worker count.
    fn train_inline<F>(
        &self,
        net: &mut Network,
        data: &mut Dataset,
        mut after_epoch: F,
    ) -> Vec<EpochStats>
    where
        F: FnMut(&mut Network, &EpochStats),
    {
        let mut ws = Workspace::for_network(net);
        let mut acc = BatchAcc::for_network(net);
        let mut velocity = zero_param_grads(net);
        let mut all_stats = Vec::with_capacity(self.config.epochs);
        for epoch in 1..=self.config.epochs {
            // One scope entry per epoch: `trainer` wall time / call count
            // gives total optimizer-loop time in the metrics snapshot.
            let _telemetry = spg_telemetry::scope("trainer", spg_telemetry::Phase::Other);
            shuffle_for_epoch(data, &self.config, epoch);
            let start = Instant::now();
            let mut epoch_acc = EpochAcc::new(acc.sparsity_sums.len());

            let indices: Vec<usize> = (0..data.len()).collect();
            for batch in indices.chunks(self.config.batch_size) {
                acc.reset();
                for &i in batch {
                    let (loss, correct) = process_sample(net, data, i, &mut ws);
                    acc.absorb(loss, correct, &ws.param_grads, &ws.grad_sparsity);
                }
                epoch_acc.absorb(&acc, batch.len());
                apply_batch(&self.config, net, &mut velocity, &acc, batch.len());
            }

            let stats = epoch_acc.into_stats(epoch, data.len(), start.elapsed().as_secs_f64());
            after_epoch(net, &stats);
            all_stats.push(stats);
        }
        all_stats
    }

    /// Pooled training: `sample_threads` persistent workers, spawned once,
    /// each owning one [`Workspace`]. Jobs carry recycled [`SampleResult`]
    /// buffers out and back, so the steady-state loop is allocation-free
    /// end to end.
    ///
    /// The main thread is the supervisor: a worker that panics sends a
    /// fault message (its sample's position in the in-order merge) and
    /// exits; the supervisor respawns the slot with a fresh [`Workspace`],
    /// replays the lost samples in order, and charges the slot's restart
    /// budget.
    fn train_pooled<F>(
        &self,
        net: &mut Network,
        data: &mut Dataset,
        mut after_epoch: F,
    ) -> Result<Vec<EpochStats>, TrainError>
    where
        F: FnMut(&mut Network, &EpochStats),
    {
        // Batch-starvation clamp: jobs round-robin as `j % workers`, so a
        // pool wider than the batch leaves slots that never receive a
        // sample — they would be spawned, idle for the whole run, and
        // still charge scope/teardown cost. Spawn only as many workers as
        // the batch can feed and count the declined slots.
        let workers = self.config.sample_threads.min(self.config.batch_size).max(1);
        let starved = self.config.sample_threads - workers;
        if starved > 0 {
            spg_telemetry::record_counter("train.starved_workers", starved as u64);
        }
        let mut acc = BatchAcc::for_network(net);
        let mut velocity = zero_param_grads(net);
        // Enough result slots that a full batch can be in flight.
        let mut free: Vec<SampleResult> = (0..self.config.batch_size.max(workers))
            .map(|_| SampleResult::for_network(net))
            .collect();
        let injector = FaultInjector::new(self.config.fault_plan);

        // Workers read the network and dataset through RwLocks; the main
        // thread takes the write side only between batches (applying
        // updates / reshuffling), when no jobs are outstanding. All lock
        // acquisition recovers from poisoning: a worker panic is confined
        // by catch_unwind while only read guards are held, and read-side
        // guards never leave the data mid-update.
        let net_lock = RwLock::new(net);
        let data_lock = RwLock::new(data);

        std::thread::scope(|scope| {
            // Spawns one worker incarnation for slot `w`; re-invoked by
            // the supervisor with a disarmed injector after a fault.
            let spawn_worker = |w: usize, injector: FaultInjector| {
                let (job_tx, job_rx) = mpsc::channel::<(usize, SampleResult)>();
                let (result_tx, result_rx) = mpsc::channel::<Result<SampleResult, String>>();
                let net_lock = &net_lock;
                let data_lock = &data_lock;
                scope.spawn(move || {
                    let mut ws = {
                        let net = spg_sync::read(net_lock);
                        Workspace::for_network(&net)
                    };
                    let mut jobs_done: u64 = 0;
                    // Blocked on recv the worker holds no locks; it exits
                    // when the main thread drops its job sender, or after
                    // reporting a fault.
                    while let Ok((i, mut slot)) = job_rx.recv() {
                        jobs_done += 1;
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            injector.check(w, jobs_done);
                            let net = spg_sync::read(net_lock);
                            let data = spg_sync::read(data_lock);
                            let (loss, correct) = process_sample(&net, &data, i, &mut ws);
                            slot.capture(&ws, loss, correct);
                        }));
                        match outcome {
                            Ok(()) => {
                                if result_tx.send(Ok(slot)).is_err() {
                                    break;
                                }
                            }
                            Err(payload) => {
                                // The workspace may be mid-update: report
                                // the fault (in order, as this sample's
                                // result) and exit so the supervisor can
                                // respawn a clean incarnation.
                                let _ =
                                    result_tx.send(Err(spg_sync::panic_message(payload.as_ref())));
                                break;
                            }
                        }
                    }
                });
                (job_tx, result_rx)
            };

            let mut job_txs = Vec::with_capacity(workers);
            let mut result_rxs = Vec::with_capacity(workers);
            for w in 0..workers {
                let (job_tx, result_rx) = spawn_worker(w, injector.clone());
                job_txs.push(job_tx);
                result_rxs.push(result_rx);
            }
            let mut restarts_used = vec![0usize; workers];

            let mut all_stats = Vec::with_capacity(self.config.epochs);
            for epoch in 1..=self.config.epochs {
                let _telemetry = spg_telemetry::scope("trainer", spg_telemetry::Phase::Other);
                let data_len = {
                    let mut data = spg_sync::write(&data_lock);
                    shuffle_for_epoch(&mut data, &self.config, epoch);
                    data.len()
                };
                let start = Instant::now();
                let mut epoch_acc = EpochAcc::new(acc.sparsity_sums.len());

                let indices: Vec<usize> = (0..data_len).collect();
                for (batch_no, batch) in indices.chunks(self.config.batch_size).enumerate() {
                    acc.reset();
                    // Sample j -> worker j % workers, round-robin. A send
                    // only fails when the worker already crashed; its
                    // pending fault is handled (and the lost jobs are
                    // replayed) in the merge loop below.
                    for (j, &i) in batch.iter().enumerate() {
                        let slot = free.pop().unwrap_or_else(|| {
                            let net = spg_sync::read(&net_lock);
                            SampleResult::for_network(&net)
                        });
                        let _ = job_txs[j % workers].send((i, slot));
                    }
                    // Receive in sample order: worker j % workers returns
                    // its results FIFO, so this merge order — and with it
                    // the f32 accumulation — is identical to the inline
                    // path regardless of worker count, fault or no fault.
                    let mut j = 0;
                    while j < batch.len() {
                        let w = j % workers;
                        match result_rxs[w].recv() {
                            Ok(Ok(r)) => {
                                acc.absorb(r.loss, r.correct, &r.param_grads, &r.grad_sparsity);
                                free.push(r);
                                j += 1;
                            }
                            fault => {
                                // Worker w crashed on sample j (faults are
                                // reported in-order as that sample's
                                // result) or died without reporting.
                                let message = match fault {
                                    Ok(Err(message)) => message,
                                    _ => "training worker disconnected".to_string(),
                                };
                                spg_telemetry::record_counter("train.faulted_samples", 1);
                                if restarts_used[w] >= self.config.restart_budget {
                                    // Returning drops the job senders, so
                                    // the surviving workers exit before
                                    // the scope joins them: no deadlock.
                                    return Err(TrainError::WorkerFault {
                                        worker: w,
                                        epoch,
                                        batch: batch_no,
                                        message,
                                    });
                                }
                                restarts_used[w] += 1;
                                spg_telemetry::record_counter("train.worker_restarts", 1);
                                let backoff = spg_sync::backoff_delay(
                                    self.config.restart_backoff,
                                    restarts_used[w],
                                );
                                if !backoff.is_zero() {
                                    std::thread::sleep(backoff);
                                }
                                // Respawn with a disarmed injector: the
                                // one-shot plan must not re-trip on the
                                // replayed samples. Real deterministic
                                // panics re-fire on replay and burn down
                                // the budget to a typed error.
                                let (job_tx, result_rx) =
                                    spawn_worker(w, FaultInjector::disarmed());
                                job_txs[w] = job_tx;
                                result_rxs[w] = result_rx;
                                // Replay the faulted sample and every
                                // later sample of this batch owned by the
                                // slot — those jobs died with the old
                                // channel. Replay preserves order, so the
                                // merge stays bit-identical.
                                for (j2, &i2) in batch.iter().enumerate().skip(j) {
                                    if j2 % workers == w {
                                        let slot = free.pop().unwrap_or_else(|| {
                                            let net = spg_sync::read(&net_lock);
                                            SampleResult::for_network(&net)
                                        });
                                        let _ = job_txs[w].send((i2, slot));
                                    }
                                }
                            }
                        }
                    }
                    epoch_acc.absorb(&acc, batch.len());
                    let mut net = spg_sync::write(&net_lock);
                    apply_batch(&self.config, &mut net, &mut velocity, &acc, batch.len());
                }

                let stats = epoch_acc.into_stats(epoch, data_len, start.elapsed().as_secs_f64());
                {
                    let mut net = spg_sync::write(&net_lock);
                    after_epoch(&mut net, &stats);
                }
                all_stats.push(stats);
            }
            // Dropping the job senders ends the workers before the scope
            // joins them.
            drop(job_txs);
            Ok(all_stats)
        })
    }
}

/// Shuffles `data` for `epoch` (1-based) with the configured seed.
/// Shuffles compose in place across epochs, so a run resumed at epoch
/// `e` must first replay epochs `1..e` on the original order.
pub fn shuffle_for_epoch(data: &mut Dataset, config: &TrainerConfig, epoch: usize) {
    data.shuffle(config.shuffle_seed.wrapping_add(epoch as u64));
}

/// Applies one batch's accumulated gradients: plain SGD, or the momentum
/// update `v = momentum * v + grad / batch_len; params -= lr * v`.
pub fn apply_batch(
    config: &TrainerConfig,
    net: &mut Network,
    velocity: &mut [Tensor],
    acc: &BatchAcc,
    batch_len: usize,
) {
    let scale = batch_len as f32;
    if config.momentum > 0.0 {
        for (v, g) in velocity.iter_mut().zip(&acc.grads) {
            for (v, g) in v.iter_mut().zip(g.iter()) {
                *v = config.momentum * *v + g / scale;
            }
        }
        net.apply_gradient_slices(velocity, config.learning_rate, 1.0);
    } else {
        net.apply_gradient_slices(&acc.grads, config.learning_rate, scale);
    }
}

/// Indices of the conv layers (the Fig. 3b sparsity series).
pub fn conv_layer_indices(net: &Network) -> Vec<usize> {
    net.layers().iter().enumerate().filter_map(|(i, l)| l.conv_spec().map(|_| i)).collect()
}

/// One zeroed parameter-gradient-shaped tensor per layer (empty for
/// parameter-free layers) — the shape of gradients and of the momentum
/// velocity.
pub fn zero_param_grads(net: &Network) -> Vec<Tensor> {
    net.layers().iter().map(|l| Tensor::zeros(l.param_count())).collect()
}

/// Runs one sample forward + backward inside `ws`, returning its loss and
/// whether the prediction was correct.
pub fn process_sample(net: &Network, data: &Dataset, i: usize, ws: &mut Workspace) -> (f32, bool) {
    net.forward_into(data.image(i).as_slice(), ws);
    let label = data.label(i);
    let (loss, loss_grad) = Network::loss_and_gradient(ws.trace.logits(), label);
    let logits = ws.trace.logits();
    let pred = (0..logits.len()).max_by(|&a, &b| logits[a].total_cmp(&logits[b])).unwrap_or(0);
    net.backward_into(loss_grad.as_slice(), ws);
    (loss, pred == label)
}

/// One sample's results, copied out of the [`Workspace`] that computed
/// them and recycled across batches: the pool shuttles them main ->
/// worker -> main so a worker can start its next sample while the main
/// thread merges, and a cluster rank holds its block's samples until
/// the all-reduce folds them.
#[derive(Debug)]
pub struct SampleResult {
    /// Cross-entropy loss.
    pub loss: f32,
    /// Whether the prediction was correct.
    pub correct: bool,
    /// Parameter gradients, one tensor per layer.
    pub param_grads: Vec<Tensor>,
    /// Backward gradient sparsity per layer.
    pub grad_sparsity: Vec<f64>,
}

impl SampleResult {
    /// Zeroed buffers shaped for `net`.
    pub fn for_network(net: &Network) -> Self {
        SampleResult {
            loss: 0.0,
            correct: false,
            param_grads: zero_param_grads(net),
            grad_sparsity: vec![0.0; net.layers().len()],
        }
    }

    /// Copies the gradients of the sample `ws` just processed, without
    /// allocating.
    pub fn capture(&mut self, ws: &Workspace, loss: f32, correct: bool) {
        self.loss = loss;
        self.correct = correct;
        for (dst, src) in self.param_grads.iter_mut().zip(&ws.param_grads) {
            dst.as_mut_slice().copy_from_slice(src.as_slice());
        }
        self.grad_sparsity.copy_from_slice(&ws.grad_sparsity);
    }
}

/// Per-batch accumulator, reset and refilled every batch. Samples fold
/// in batch order, so the f32 association — and every rounding — is
/// fixed by the batch, not by who computed which sample.
#[derive(Debug)]
pub struct BatchAcc {
    /// Summed parameter gradients, one tensor per layer.
    pub grads: Vec<Tensor>,
    /// Summed losses.
    pub loss_sum: f64,
    /// Correct-prediction count.
    pub correct: usize,
    /// Summed gradient sparsity per conv layer.
    pub sparsity_sums: Vec<f64>,
    conv_layers: Vec<usize>,
}

impl BatchAcc {
    /// A zeroed accumulator shaped for `net`.
    pub fn for_network(net: &Network) -> Self {
        let conv_layers = conv_layer_indices(net);
        BatchAcc {
            grads: zero_param_grads(net),
            loss_sum: 0.0,
            correct: 0,
            sparsity_sums: vec![0.0; conv_layers.len()],
            conv_layers,
        }
    }

    /// Zeroes every sum.
    pub fn reset(&mut self) {
        for g in &mut self.grads {
            g.as_mut_slice().fill(0.0);
        }
        self.loss_sum = 0.0;
        self.correct = 0;
        self.sparsity_sums.fill(0.0);
    }

    /// Folds one sample in: its scalars and its per-layer gradients.
    pub fn absorb(
        &mut self,
        loss: f32,
        correct: bool,
        param_grads: &[Tensor],
        grad_sparsity: &[f64],
    ) {
        self.absorb_scalars(loss, correct, grad_sparsity);
        for (acc, g) in self.grads.iter_mut().zip(param_grads) {
            for (a, v) in acc.iter_mut().zip(g.iter()) {
                *a += v;
            }
        }
    }

    /// Folds one sample's loss, correctness and conv-layer sparsities in,
    /// leaving the gradients to a caller that folds them piecewise.
    pub fn absorb_scalars(&mut self, loss: f32, correct: bool, grad_sparsity: &[f64]) {
        self.loss_sum += f64::from(loss);
        self.correct += usize::from(correct);
        for (dst, &li) in self.sparsity_sums.iter_mut().zip(&self.conv_layers) {
            *dst += grad_sparsity[li];
        }
    }
}

/// Per-epoch accumulator over the batch accumulators.
#[derive(Debug)]
pub struct EpochAcc {
    /// Summed losses.
    pub loss_sum: f64,
    /// Correct-prediction count.
    pub correct: usize,
    /// Summed gradient sparsity per conv layer.
    pub sparsity_sums: Vec<f64>,
    /// Samples absorbed.
    pub samples_seen: usize,
}

impl EpochAcc {
    /// A zeroed accumulator for `conv_count` conv layers.
    pub fn new(conv_count: usize) -> Self {
        EpochAcc {
            loss_sum: 0.0,
            correct: 0,
            sparsity_sums: vec![0.0; conv_count],
            samples_seen: 0,
        }
    }

    /// Adds one finished batch of `batch_len` samples.
    pub fn absorb(&mut self, acc: &BatchAcc, batch_len: usize) {
        self.loss_sum += acc.loss_sum;
        self.correct += acc.correct;
        for (dst, src) in self.sparsity_sums.iter_mut().zip(&acc.sparsity_sums) {
            *dst += src;
        }
        self.samples_seen += batch_len;
    }

    /// The epoch's statistics over `samples` images in `elapsed` seconds.
    pub fn into_stats(self, epoch: usize, samples: usize, elapsed: f64) -> EpochStats {
        EpochStats {
            epoch,
            mean_loss: self.loss_sum / samples as f64,
            accuracy: self.correct as f64 / samples as f64,
            conv_grad_sparsity: self
                .sparsity_sums
                .iter()
                .map(|s| s / self.samples_seen.max(1) as f64)
                .collect(),
            images_per_sec: samples as f64 / elapsed.max(1e-9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{ConvLayer, FcLayer, MaxPoolLayer, ReluLayer};
    use crate::ConvSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_tensor::Shape3;

    fn make_net(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1).unwrap();
        let out = spec.output_shape();
        Network::new(vec![
            Box::new(ConvLayer::new(spec, &mut rng)),
            Box::new(ReluLayer::new(out.len())),
            Box::new(MaxPoolLayer::new(Shape3::new(out.c, out.h, out.w), 2).unwrap()),
            Box::new(FcLayer::new(4 * 3 * 3, 3, &mut rng)),
        ])
        .unwrap()
    }

    fn make_data() -> Dataset {
        Dataset::synthetic(Shape3::new(1, 8, 8), 3, 24, 0.15, 77)
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let mut net = make_net(10);
        let mut data = make_data();
        let cfg = TrainerConfig { epochs: 8, learning_rate: 0.1, ..Default::default() };
        let stats = Trainer::new(cfg).train(&mut net, &mut data);
        assert!(stats.last().unwrap().mean_loss < stats.first().unwrap().mean_loss);
        assert!(
            stats.last().unwrap().accuracy > 0.6,
            "accuracy {}",
            stats.last().unwrap().accuracy
        );
    }

    #[test]
    fn parallel_samples_match_sequential() {
        let mut data1 = make_data();
        let mut data2 = make_data();
        let mut net1 = make_net(11);
        let mut net2 = make_net(11);
        let base = TrainerConfig { epochs: 3, ..Default::default() };
        let s1 = Trainer::new(TrainerConfig { sample_threads: 1, ..base.clone() })
            .train(&mut net1, &mut data1);
        let s2 =
            Trainer::new(TrainerConfig { sample_threads: 4, ..base }).train(&mut net2, &mut data2);
        let (l1, l2) = (s1.last().unwrap().mean_loss, s2.last().unwrap().mean_loss);
        assert!((l1 - l2).abs() < 1e-3, "{l1} vs {l2}");
    }

    #[test]
    fn sample_thread_count_is_bit_deterministic() {
        // In-order merging makes the accumulation order — and therefore
        // every f32 rounding — independent of the worker count: epoch
        // losses must match to the bit, not merely to a tolerance.
        let run = |threads: usize| -> Vec<u64> {
            let mut net = make_net(42);
            let mut data = make_data();
            let cfg = TrainerConfig {
                epochs: 3,
                momentum: 0.9,
                sample_threads: threads,
                ..Default::default()
            };
            Trainer::new(cfg)
                .train(&mut net, &mut data)
                .iter()
                .map(|s| s.mean_loss.to_bits())
                .collect()
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn gradient_sparsity_grows_over_epochs() {
        // The Fig. 3b dynamic: as the model fits, conv-layer error
        // gradients become sparser.
        let mut net = make_net(12);
        let mut data = make_data();
        let cfg = TrainerConfig { epochs: 10, learning_rate: 0.1, ..Default::default() };
        let stats = Trainer::new(cfg).train(&mut net, &mut data);
        let first = stats.first().unwrap().conv_grad_sparsity[0];
        let last = stats.last().unwrap().conv_grad_sparsity[0];
        assert!(last >= first, "sparsity did not grow: {first} -> {last}");
        assert!(last > 0.3, "final sparsity too low: {last}");
    }

    #[test]
    fn epoch_callback_fires_each_epoch() {
        let mut net = make_net(13);
        let mut data = make_data();
        let mut calls = 0;
        Trainer::new(TrainerConfig { epochs: 3, ..Default::default() }).train_with(
            &mut net,
            &mut data,
            |_, stats| {
                calls += 1;
                assert_eq!(stats.epoch, calls);
            },
        );
        assert_eq!(calls, 3);
    }

    #[test]
    fn pooled_epoch_callback_can_retune_executors() {
        // The callback takes &mut Network under the pool's write lock; a
        // re-plan mid-training must not wedge or corrupt the run.
        let mut net = make_net(14);
        let mut data = make_data();
        let mut calls = 0;
        Trainer::new(TrainerConfig { epochs: 2, sample_threads: 3, ..Default::default() })
            .train_with(&mut net, &mut data, |net, _| {
                calls += 1;
                for layer in net.layers_mut() {
                    if let Some(conv) = layer.as_conv_mut() {
                        conv.set_backward_executor(std::sync::Arc::new(
                            crate::exec::ReferenceExecutor,
                        ));
                    }
                }
            });
        assert_eq!(calls, 2);
    }

    /// Regression: a pool configured wider than the batch (batch_size=1,
    /// sample_threads=8) used to spawn all 8 workers, 7 of which could
    /// never receive a job through the `j % workers` round-robin. The
    /// clamp must keep training correct (bit-identical to one thread) and
    /// count the declined slots in the starvation telemetry.
    #[test]
    fn starved_pool_clamps_workers_to_batch() {
        spg_telemetry::set_enabled(true);
        let starved_before = spg_telemetry::snapshot().counter("train.starved_workers");
        let run = |threads: usize| -> Vec<u64> {
            let mut net = make_net(21);
            let mut data = make_data();
            let cfg = TrainerConfig {
                epochs: 2,
                batch_size: 1,
                sample_threads: threads,
                ..Default::default()
            };
            Trainer::new(cfg)
                .train(&mut net, &mut data)
                .iter()
                .map(|s| s.mean_loss.to_bits())
                .collect()
        };
        let sequential = run(1);
        let starved = run(8);
        assert_eq!(sequential, starved, "starved pool must train identically");
        let declined = spg_telemetry::snapshot().counter("train.starved_workers") - starved_before;
        // The 8-thread run clamps to 1 worker per epoch-spanning pool:
        // 7 declined slots recorded (the 1-thread run records none).
        assert_eq!(declined, 7, "declined worker slots counted");
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_rejected() {
        Trainer::new(TrainerConfig { batch_size: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn invalid_momentum_rejected() {
        Trainer::new(TrainerConfig { momentum: 1.0, ..Default::default() });
    }

    #[test]
    fn momentum_training_learns() {
        let mut net = make_net(20);
        let mut data = make_data();
        let cfg =
            TrainerConfig { epochs: 8, learning_rate: 0.05, momentum: 0.9, ..Default::default() };
        let stats = Trainer::new(cfg).train(&mut net, &mut data);
        assert!(stats.last().unwrap().mean_loss < stats.first().unwrap().mean_loss);
        assert!(stats.last().unwrap().accuracy > 0.6);
    }

    #[test]
    fn momentum_changes_the_trajectory() {
        let mut plain_net = make_net(21);
        let mut mom_net = make_net(21);
        let mut d1 = make_data();
        let mut d2 = make_data();
        let base = TrainerConfig { epochs: 3, ..Default::default() };
        let plain = Trainer::new(base.clone()).train(&mut plain_net, &mut d1);
        let momentum =
            Trainer::new(TrainerConfig { momentum: 0.9, ..base }).train(&mut mom_net, &mut d2);
        let (a, b) = (plain.last().unwrap().mean_loss, momentum.last().unwrap().mean_loss);
        assert!((a - b).abs() > 1e-6, "momentum had no effect: {a} vs {b}");
    }
}
