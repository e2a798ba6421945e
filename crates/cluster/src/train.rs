//! Synchronous data-parallel SGD across ranks: every rank processes its
//! contiguous block of each global batch, the gradients all-reduce over
//! the ordered ring, and **every rank applies the identical update** —
//! so weights never travel after startup and losses are bit-identical
//! to the single-process `spg_convnet::Trainer` on the same seed.
//!
//! A rank runs the Trainer's own per-batch step from
//! [`spg_convnet::sgd`] — the per-epoch shuffle, the per-sample forward
//! and backward, the update and the epoch statistics — and differs from
//! the pool only in where the in-order batch fold happens: inside
//! [`ring_allreduce`], in global sample order. The tests below pin the
//! result against the pool for 1, 2, 3 and 4 ranks.
//!
//! # Fault recovery
//!
//! A rank mutates its [`RankState`] only at batch commit (after the
//! update applies), so a rank dropping mid-all-reduce leaves every
//! surviving rank with a consistent committed state and a typed
//! [`ClusterError::RingFault`]. The in-process driver
//! [`train_in_proc`] then replays: it takes the state with the most
//! committed batches (all survivors agree — updates are synchronous),
//! respawns every rank from it, and resumes at the faulted batch.
//! Because the resumed fold is the same arithmetic from the same state,
//! the recovered run's losses are bit-identical to a fault-free run —
//! the distributed analogue of the pool's in-order sample replay.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use spg_convnet::data::Dataset;
use spg_convnet::sgd::{
    apply_batch, conv_layer_indices, process_sample, shuffle_for_epoch, zero_param_grads, BatchAcc,
    EpochAcc, SampleResult,
};
use spg_convnet::workspace::Workspace;
use spg_convnet::{io, EpochStats, Network, TrainerConfig};
use spg_tensor::Tensor;

use crate::allreduce::{ring_allreduce, RingLink, DEFAULT_CHUNK_FLOATS};
use crate::ClusterError;

/// A deterministic mid-all-reduce fault drill: the named rank drops its
/// ring links (as a killed process would) right before the all-reduce
/// of the named batch. Always armed when configured — the drill is
/// plain configuration, no cargo feature required, mirroring the
/// `--inject-fault` CLI style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainFault {
    /// Rank that drops.
    pub rank: usize,
    /// Epoch (1-based) of the drop.
    pub epoch: usize,
    /// Batch index within the epoch.
    pub batch: usize,
}

impl TrainFault {
    /// Parses `"RANK:EPOCH:BATCH"` (e.g. `"1:1:2"`).
    pub fn parse(s: &str) -> Option<TrainFault> {
        let mut it = s.split(':');
        let rank = it.next()?.parse().ok()?;
        let epoch = it.next()?.parse().ok()?;
        let batch = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(TrainFault { rank, epoch, batch })
    }
}

/// The communication fabric one rank trains over.
pub enum Comm {
    /// Single rank: no communication at all.
    Solo,
    /// Ring neighbors (UDS or TCP stream halves).
    Ring {
        /// Stream from the previous rank.
        rx_prev: Box<dyn Read + Send>,
        /// Stream to the next rank.
        tx_next: Box<dyn Write + Send>,
    },
}

/// Per-rank training options.
#[derive(Debug, Clone)]
pub struct RankOptions {
    /// This rank.
    pub rank: usize,
    /// Total rank count.
    pub world: usize,
    /// Floats per wire chunk.
    pub chunk_floats: usize,
    /// Optional deterministic fault drill.
    pub fault: Option<TrainFault>,
}

/// Everything a rank has durably committed: weights, optimizer state,
/// epoch-statistics accumulators, and the resume position. Mutated only
/// after a batch's update has been applied.
#[derive(Debug, Clone)]
pub struct RankState {
    /// Batches fully applied since training started.
    pub committed_batches: u64,
    /// Epoch (1-based) to resume at.
    pub next_epoch: usize,
    /// Batch index within `next_epoch` to resume at.
    pub next_batch: usize,
    /// Weight snapshot (`spg_convnet::io` format) at the last commit.
    pub weights: Vec<u8>,
    /// Momentum velocity at the last commit.
    pub velocity: Vec<Tensor>,
    /// Partial epoch accumulator: loss sum.
    pub epoch_loss_sum: f64,
    /// Partial epoch accumulator: correct predictions.
    pub epoch_correct: usize,
    /// Partial epoch accumulator: per-conv-layer sparsity sums.
    pub epoch_sparsity_sums: Vec<f64>,
    /// Partial epoch accumulator: samples absorbed.
    pub epoch_samples: usize,
    /// Stats of every completed epoch.
    pub stats: Vec<EpochStats>,
}

impl RankState {
    /// Fresh state at the start of training for `net`.
    pub fn fresh(net: &Network) -> Self {
        let mut weights = Vec::new();
        io::save_weights(net, &mut weights).expect("in-memory weight snapshot");
        RankState {
            committed_batches: 0,
            next_epoch: 1,
            next_batch: 0,
            weights,
            velocity: zero_param_grads(net),
            epoch_loss_sum: 0.0,
            epoch_correct: 0,
            epoch_sparsity_sums: vec![0.0; conv_layer_indices(net).len()],
            epoch_samples: 0,
            stats: Vec::new(),
        }
    }

    /// The partial epoch accumulator to resume `epoch` at: the committed
    /// one mid-epoch, a zeroed one at an epoch boundary.
    fn epoch_acc(&self, start_batch: usize) -> EpochAcc {
        let mut acc = EpochAcc::new(self.epoch_sparsity_sums.len());
        if start_batch > 0 {
            acc.loss_sum = self.epoch_loss_sum;
            acc.correct = self.epoch_correct;
            acc.sparsity_sums.clone_from(&self.epoch_sparsity_sums);
            acc.samples_seen = self.epoch_samples;
        }
        acc
    }

    /// Commits everything a replay needs to resume *after* batch
    /// `batch_no` of `epoch`.
    fn commit(
        &mut self,
        net: &Network,
        velocity: &[Tensor],
        epoch_acc: &EpochAcc,
        epoch: usize,
        batch_no: usize,
    ) {
        self.committed_batches += 1;
        self.next_epoch = epoch;
        self.next_batch = batch_no + 1;
        self.weights.clear();
        io::save_weights(net, &mut self.weights).expect("in-memory weight snapshot");
        for (dst, src) in self.velocity.iter_mut().zip(velocity) {
            dst.as_mut_slice().copy_from_slice(src.as_slice());
        }
        self.epoch_loss_sum = epoch_acc.loss_sum;
        self.epoch_correct = epoch_acc.correct;
        self.epoch_sparsity_sums.clone_from(&epoch_acc.sparsity_sums);
        self.epoch_samples = epoch_acc.samples_seen;
    }
}

/// This rank's contiguous block `[start, end)` of a `batch_len`-sample
/// batch: blocks partition the batch in rank order, sized as evenly as
/// possible (first `batch_len % world` ranks get one extra).
pub fn block_bounds(batch_len: usize, world: usize, rank: usize) -> (usize, usize) {
    let base = batch_len / world;
    let extra = batch_len % world;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    (start, start + len)
}

/// Runs one rank of the synchronous data-parallel training loop.
///
/// `state` carries committed progress in and out: on success it holds
/// the final state; on a typed error it holds the last *committed*
/// state, from which the driver replays deterministically. The returned
/// stats (on success) equal `state.stats`.
///
/// # Errors
///
/// [`ClusterError::RingFault`] when a peer drops mid-all-reduce (or
/// this rank's own fault drill fires), [`ClusterError::Protocol`] on
/// wire sequence violations, [`ClusterError::Config`] on an invalid
/// `trainer` or a rank outside the world.
pub fn run_rank(
    net: &mut Network,
    data: &mut Dataset,
    trainer: &TrainerConfig,
    opts: &RankOptions,
    comm: &mut Comm,
    state: &mut RankState,
) -> Result<Vec<EpochStats>, ClusterError> {
    trainer.validate().map_err(|detail| ClusterError::Config { detail })?;
    if opts.world == 0 || opts.rank >= opts.world {
        return Err(ClusterError::Config {
            detail: format!("rank {} out of range for world {}", opts.rank, opts.world),
        });
    }

    io::load_weights(net, state.weights.as_slice())
        .map_err(|e| ClusterError::Config { detail: format!("restoring rank state: {e}") })?;
    let mut velocity = state.velocity.clone();
    let mut ws = Workspace::for_network(net);
    let mut acc = BatchAcc::for_network(net);
    // This rank's block of every batch, recycled batch after batch.
    let mut block: Vec<SampleResult> = (0..trainer.batch_size.div_ceil(opts.world))
        .map(|_| SampleResult::for_network(net))
        .collect();
    let (mut solo_rx, mut solo_tx) = (std::io::empty(), std::io::sink());
    let mut link = match comm {
        Comm::Solo => RingLink { rank: 0, world: 1, rx_prev: &mut solo_rx, tx_next: &mut solo_tx },
        Comm::Ring { rx_prev, tx_next } => RingLink {
            rank: opts.rank,
            world: opts.world,
            rx_prev: rx_prev.as_mut(),
            tx_next: tx_next.as_mut(),
        },
    };

    let resume_epoch = state.next_epoch;
    // `data` arrives in original order and epoch shuffles compose, so a
    // resume replays the completed epochs' permutations first.
    for e in 1..resume_epoch {
        shuffle_for_epoch(data, trainer, e);
    }
    for epoch in resume_epoch..=trainer.epochs {
        let _telemetry = spg_telemetry::scope("cluster.trainer", spg_telemetry::Phase::Other);
        shuffle_for_epoch(data, trainer, epoch);
        let start = Instant::now();
        let start_batch = if epoch == resume_epoch { state.next_batch } else { 0 };
        let mut epoch_acc = state.epoch_acc(start_batch);

        let indices: Vec<usize> = (0..data.len()).collect();
        let epoch_u32 = u32::try_from(epoch).expect("epoch fits u32");
        for (batch_no, batch) in indices.chunks(trainer.batch_size).enumerate().skip(start_batch) {
            if let Some(f) = opts.fault {
                if f.rank == opts.rank && f.epoch == epoch && f.batch == batch_no {
                    // Dropping out here (links close when the caller
                    // drops Comm) is what a killed worker looks like to
                    // its neighbors: their reads fail mid-all-reduce.
                    return Err(ClusterError::RingFault {
                        rank: opts.rank,
                        epoch,
                        batch: batch_no,
                        message: "injected fault: rank dropped before all-reduce".to_string(),
                    });
                }
            }
            let (s0, s1) = block_bounds(batch.len(), opts.world, opts.rank);
            for (slot, &i) in block.iter_mut().zip(&batch[s0..s1]) {
                let (loss, correct) = process_sample(net, data, i, &mut ws);
                slot.capture(&ws, loss, correct);
            }
            let batch_u32 = u32::try_from(batch_no).expect("batch index fits u32");
            ring_allreduce(
                &mut link,
                epoch_u32,
                batch_u32,
                &block[..s1 - s0],
                &mut acc,
                opts.chunk_floats,
            )?;
            // Same order as the pool: absorb into the epoch accumulator,
            // then apply the update.
            epoch_acc.absorb(&acc, batch.len());
            apply_batch(trainer, net, &mut velocity, &acc, batch.len());
            state.commit(net, &velocity, &epoch_acc, epoch, batch_no);
        }

        state.stats.push(epoch_acc.into_stats(epoch, data.len(), start.elapsed().as_secs_f64()));
        state.next_epoch = epoch + 1;
        state.next_batch = 0;
        state.epoch_loss_sum = 0.0;
        state.epoch_correct = 0;
        state.epoch_sparsity_sums.fill(0.0);
        state.epoch_samples = 0;
    }
    Ok(state.stats.clone())
}

/// Options for the in-process multi-rank driver.
#[derive(Debug, Clone)]
pub struct InProcTrainOptions {
    /// Rank count.
    pub world: usize,
    /// Floats per wire chunk.
    pub chunk_floats: usize,
    /// How many whole-cluster replays a mid-all-reduce fault (or a rank
    /// panic) may burn before the typed error surfaces to the caller.
    pub restart_budget: usize,
    /// Base backoff before a replay (doubles per consecutive restart).
    pub restart_backoff: Duration,
    /// Optional deterministic fault drill (fires on the first attempt
    /// only, like a one-shot `FaultPlan`).
    pub fault: Option<TrainFault>,
}

impl Default for InProcTrainOptions {
    fn default() -> Self {
        InProcTrainOptions {
            world: 2,
            chunk_floats: DEFAULT_CHUNK_FLOATS,
            restart_budget: 2,
            restart_backoff: Duration::from_millis(1),
            fault: None,
        }
    }
}

/// Builds the ring socketpairs for `world` in-process ranks: element
/// `r` is `(rx_prev, tx_next)` for rank `r`.
fn ring_fabric(world: usize) -> std::io::Result<Vec<Comm>> {
    use std::os::unix::net::UnixStream;
    if world == 1 {
        return Ok(vec![Comm::Solo]);
    }
    let mut txs: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
    let mut rxs: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
    for r in 0..world {
        let (a, b) = UnixStream::pair()?;
        txs[r] = Some(a);
        rxs[(r + 1) % world] = Some(b);
    }
    Ok(txs
        .into_iter()
        .zip(rxs)
        .map(|(tx, rx)| Comm::Ring {
            rx_prev: Box::new(rx.expect("fabric complete")),
            tx_next: Box::new(tx.expect("fabric complete")),
        })
        .collect())
}

/// Trains `world` in-process ranks (threads over Unix socketpairs) with
/// synchronous data-parallel SGD, recovering deterministically from
/// mid-all-reduce faults and rank panics.
///
/// `factory` must deterministically construct the *same* initial
/// network on every call (e.g. seeded construction); every rank also
/// receives its own clone of `data`. On success the returned stats are
/// bit-identical (mean loss, accuracy, sparsity) to
/// `Trainer::train` with the same `TrainerConfig` on one process.
///
/// # Errors
///
/// The typed fault of the first failing rank once the restart budget is
/// spent — [`ClusterError::RankPanic`] for a rank that panicked;
/// [`ClusterError::Config`] for an invalid `trainer`, topology or
/// factory errors.
pub fn train_in_proc(
    factory: &(dyn Fn() -> Result<Network, spg_error::Error> + Sync),
    data: &Dataset,
    trainer: &TrainerConfig,
    opts: &InProcTrainOptions,
) -> Result<Vec<EpochStats>, ClusterError> {
    trainer.validate().map_err(|detail| ClusterError::Config { detail })?;
    if opts.world == 0 {
        return Err(ClusterError::Config { detail: "world size must be positive".to_string() });
    }
    let seed_net =
        factory().map_err(|e| ClusterError::Config { detail: format!("network factory: {e}") })?;
    let fresh = RankState::fresh(&seed_net);
    drop(seed_net);
    let mut states: Vec<RankState> = vec![fresh; opts.world];

    for attempt in 0..=opts.restart_budget {
        let fault = if attempt == 0 { opts.fault } else { None };
        let fabrics = ring_fabric(opts.world)
            .map_err(|e| ClusterError::Config { detail: format!("building fabric: {e}") })?;

        let outcomes: Vec<(RankState, Result<Vec<EpochStats>, ClusterError>)> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = fabrics
                    .into_iter()
                    .zip(&states)
                    .enumerate()
                    .map(|(rank, (mut comm, state))| {
                        let mut state = state.clone();
                        let mut data = data.clone();
                        let opts = RankOptions {
                            rank,
                            world: opts.world,
                            chunk_floats: opts.chunk_floats,
                            fault,
                        };
                        scope.spawn(move || {
                            let result = match factory() {
                                Ok(mut net) => run_rank(
                                    &mut net, &mut data, trainer, &opts, &mut comm, &mut state,
                                ),
                                Err(e) => Err(ClusterError::Config {
                                    detail: format!("network factory: {e}"),
                                }),
                            };
                            (state, result)
                        })
                    })
                    .collect();
                // A panicking rank drops its links while unwinding, so its
                // neighbors fail with ring faults instead of hanging. Its
                // own state may be mid-commit: it replays from the state
                // it was spawned with.
                handles
                    .into_iter()
                    .zip(&states)
                    .enumerate()
                    .map(|(rank, (h, spawned))| {
                        h.join().unwrap_or_else(|payload| {
                            let message = spg_sync::panic_message(payload.as_ref());
                            (spawned.clone(), Err(ClusterError::RankPanic { rank, message }))
                        })
                    })
                    .collect()
            });
        // A rank panic is the root cause of its neighbors' ring faults.
        let errors = outcomes.iter().filter_map(|(_, result)| result.as_ref().err());
        let first_err = errors
            .clone()
            .find(|e| matches!(e, ClusterError::RankPanic { .. }))
            .or_else(|| errors.clone().next())
            .cloned();
        match first_err {
            None => {
                // All ranks finished; they must agree bit-for-bit.
                let reference: Vec<u64> = outcomes[0]
                    .1
                    .as_ref()
                    .expect("checked ok")
                    .iter()
                    .map(|s| s.mean_loss.to_bits())
                    .collect();
                for (rank, (_, result)) in outcomes.iter().enumerate().skip(1) {
                    let got: Vec<u64> = result
                        .as_ref()
                        .expect("checked ok")
                        .iter()
                        .map(|s| s.mean_loss.to_bits())
                        .collect();
                    if got != reference {
                        return Err(ClusterError::Protocol {
                            rank,
                            detail: "ranks disagree on epoch losses after all-reduce".to_string(),
                        });
                    }
                }
                let (_, result) = outcomes.into_iter().next().expect("world >= 1");
                return result;
            }
            Some(err) => {
                spg_telemetry::record_counter("cluster.train.faults", 1);
                if attempt == opts.restart_budget {
                    return Err(err);
                }
                spg_telemetry::record_counter("cluster.train.restarts", 1);
                // Resume from the most-advanced committed state; with
                // synchronous updates every committed state at the same
                // count is identical, so "most advanced" is unique.
                let best = outcomes
                    .into_iter()
                    .map(|(state, _)| state)
                    .max_by_key(|s| s.committed_batches)
                    .expect("world >= 1");
                states = vec![best; opts.world];
                let backoff = spg_sync::backoff_delay(opts.restart_backoff, attempt + 1);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
        }
    }
    unreachable!("loop returns on success or exhausted budget")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_convnet::layer::{ConvLayer, FcLayer, MaxPoolLayer, ReluLayer};
    use spg_convnet::{ConvSpec, Trainer};
    use spg_tensor::Shape3;

    fn make_net() -> Result<Network, spg_error::Error> {
        let mut rng = SmallRng::seed_from_u64(42);
        let spec = ConvSpec::new(1, 8, 8, 4, 3, 3, 1, 1).unwrap();
        let out = spec.output_shape();
        Network::new(vec![
            Box::new(ConvLayer::new(spec, &mut rng)),
            Box::new(ReluLayer::new(out.len())),
            Box::new(MaxPoolLayer::new(Shape3::new(out.c, out.h, out.w), 2).unwrap()),
            Box::new(FcLayer::new(4 * 3 * 3, 3, &mut rng)),
        ])
        .map_err(|e| spg_error::Error::new(spg_error::ErrorKind::InvalidNetwork, e.to_string()))
    }

    fn make_data() -> Dataset {
        Dataset::synthetic(Shape3::new(1, 8, 8), 3, 24, 0.15, 77)
    }

    /// Velocity coefficients covering both update branches: plain SGD
    /// (0) and the velocity update.
    const MOMENTA: [f32; 2] = [0.0, 0.9];

    fn trainer_cfg(m: f32) -> TrainerConfig {
        TrainerConfig { epochs: 3, momentum: m, batch_size: 8, ..TrainerConfig::default() }
    }

    fn pool_loss_bits(m: f32) -> Vec<u64> {
        let mut net = make_net().unwrap();
        let mut data = make_data();
        Trainer::new(trainer_cfg(m))
            .train(&mut net, &mut data)
            .iter()
            .map(|s| s.mean_loss.to_bits())
            .collect()
    }

    #[test]
    fn block_bounds_partition_every_batch() {
        for len in 0..20 {
            for world in 1..6 {
                let mut next = 0;
                for rank in 0..world {
                    let (s, e) = block_bounds(len, world, rank);
                    assert_eq!(s, next, "len {len} world {world} rank {rank}");
                    assert!(e >= s);
                    next = e;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn ring_cluster_is_bit_identical_to_the_pool() {
        for m in MOMENTA {
            let expect = pool_loss_bits(m);
            for world in [1usize, 2, 3, 4] {
                let opts = InProcTrainOptions { world, ..Default::default() };
                let stats = train_in_proc(&make_net, &make_data(), &trainer_cfg(m), &opts).unwrap();
                let got: Vec<u64> = stats.iter().map(|s| s.mean_loss.to_bits()).collect();
                assert_eq!(got, expect, "world {world} diverged from the pool (m = {m})");
            }
        }
    }

    #[test]
    fn small_chunks_do_not_change_the_bits() {
        let expect = pool_loss_bits(0.9);
        let opts = InProcTrainOptions { world: 3, chunk_floats: 17, ..Default::default() };
        let stats = train_in_proc(&make_net, &make_data(), &trainer_cfg(0.9), &opts).unwrap();
        let got: Vec<u64> = stats.iter().map(|s| s.mean_loss.to_bits()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn mid_allreduce_fault_recovers_bit_identically() {
        for m in MOMENTA {
            let expect = pool_loss_bits(m);
            let opts = InProcTrainOptions {
                world: 3,
                fault: Some(TrainFault { rank: 1, epoch: 2, batch: 1 }),
                ..Default::default()
            };
            let stats = train_in_proc(&make_net, &make_data(), &trainer_cfg(m), &opts).unwrap();
            let got: Vec<u64> = stats.iter().map(|s| s.mean_loss.to_bits()).collect();
            assert_eq!(got, expect, "recovered run diverged from the pool (m = {m})");
        }
    }

    #[test]
    fn exhausted_restart_budget_surfaces_the_typed_fault() {
        // A fault injected on every attempt: impossible here (the drill
        // is one-shot), so instead spend the budget at zero with a
        // first-attempt fault.
        let opts = InProcTrainOptions {
            world: 2,
            restart_budget: 0,
            fault: Some(TrainFault { rank: 0, epoch: 1, batch: 0 }),
            ..Default::default()
        };
        let err = train_in_proc(&make_net, &make_data(), &trainer_cfg(0.9), &opts).unwrap_err();
        assert!(matches!(err, ClusterError::RingFault { .. }), "expected RingFault, got {err:?}");
    }

    /// A factory that panics on its calls numbered in `panicking`
    /// (`train_in_proc`'s seed build is call 0, then one per rank spawn).
    fn panicking_factory(
        panicking: std::ops::RangeFrom<usize>,
        once: bool,
    ) -> impl Fn() -> Result<Network, spg_error::Error> + Sync {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        move || {
            let n = calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if panicking.contains(&n) && (!once || n == panicking.start) {
                panic!("factory call {n} blew up");
            }
            make_net()
        }
    }

    #[test]
    fn rank_panic_replays_bit_identically() {
        // Rank 1's first spawn panics; the replay (charged to the budget)
        // must still land on the pool's bits.
        let factory = panicking_factory(2.., true);
        let opts = InProcTrainOptions { world: 2, ..Default::default() };
        let stats = train_in_proc(&factory, &make_data(), &trainer_cfg(0.9), &opts).unwrap();
        let got: Vec<u64> = stats.iter().map(|s| s.mean_loss.to_bits()).collect();
        assert_eq!(got, pool_loss_bits(0.9));
    }

    #[test]
    fn persistent_rank_panic_is_a_typed_error() {
        let factory = panicking_factory(2.., false);
        let opts = InProcTrainOptions { world: 2, restart_budget: 1, ..Default::default() };
        let err = train_in_proc(&factory, &make_data(), &trainer_cfg(0.9), &opts).unwrap_err();
        match err {
            ClusterError::RankPanic { message, .. } => {
                assert!(message.contains("blew up"), "panic message lost: {message}");
            }
            other => panic!("expected RankPanic, got {other:?}"),
        }
    }

    #[test]
    fn invalid_trainer_config_is_a_config_error() {
        let bad = [
            TrainerConfig { batch_size: 0, ..trainer_cfg(0.9) },
            TrainerConfig { epochs: 0, ..trainer_cfg(0.9) },
            TrainerConfig { sample_threads: 0, ..trainer_cfg(0.9) },
            trainer_cfg(1.0),
        ];
        for cfg in bad {
            let opts = InProcTrainOptions::default();
            let err = train_in_proc(&make_net, &make_data(), &cfg, &opts).unwrap_err();
            assert!(matches!(err, ClusterError::Config { .. }), "expected Config, got {err:?}");
        }
    }

    #[test]
    fn fault_parse_round_trips() {
        assert_eq!(TrainFault::parse("1:2:3"), Some(TrainFault { rank: 1, epoch: 2, batch: 3 }));
        assert_eq!(TrainFault::parse("1:2"), None);
        assert_eq!(TrainFault::parse("a:2:3"), None);
        assert_eq!(TrainFault::parse("1:2:3:4"), None);
    }
}
