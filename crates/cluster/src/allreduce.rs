//! From-scratch gradient all-reduce: an **ordered chain-in-ring**
//! algorithm whose f32 accumulation order is *identical* to the
//! single-process SGD pool's in-order merge.
//!
//! # Why not the classic reduce-scatter ring
//!
//! f32 addition is not associative, and the workspace's determinism
//! contract (see `spg_convnet::sgd`) is that batch gradients merge in
//! exact sample order `j = 0..B-1`, making losses bit-identical for any
//! worker count. A reduce-scatter/allgather ring sums per-rank partial
//! blocks in ring order — a *different* association — so it cannot hit
//! the pool's bits. The ordered ring keeps the pool's association:
//!
//! * samples are owned in **contiguous blocks** by rank: rank `w` owns
//!   batch positions `[w·B/W .. (w+1)·B/W)` (same order the pool merges);
//! * rank 0 folds its samples, one at a time and in order, into a zeroed
//!   accumulator and streams it to rank 1 in chunks;
//! * each rank `r > 0` holds its per-sample gradients, folds them — in
//!   its local sample order — **on top of** the incoming accumulator
//!   chunk, and forwards; per element, the addition order is exactly the
//!   global sample order;
//! * rank `W-1` ends up with the finished accumulator and a broadcast
//!   leg circulates it `W-1 → 0 → 1 → … → W-2`.
//!
//! Per link the traffic is ≤ 2·G (one reduce pass + one broadcast pass,
//! pipelined in [`chunk_floats`](crate::ClusterConfig::chunk_floats)-
//! sized frames), the same asymptotic bandwidth as the classic ring —
//! what is given up is overlap *within* the fold (the chain is serial
//! across ranks), which the interconnect model in `spg-simcpu` charges
//! for honestly. Scalars (the f64 loss sum, the correct count, the conv
//! sparsity sums) ride an [`Message::AccMeta`] frame and fold in the
//! same order, so epoch statistics are bit-identical too.
//!
//! The fold itself is the pool's: samples are `spg_convnet`
//! [`SampleResult`]s and the accumulator is its [`BatchAcc`]. The wire
//! chunks a gradient as one flat vector (layers concatenated in order),
//! so a chunk may span several per-layer tensors. A binomial tree would
//! cut latency at large `N` but re-associates the sum; it is modeled
//! (`spg-simcpu`'s `tree_allreduce_seconds`), not implemented.

use std::io::{Read, Write};
use std::ops::Range;

use spg_convnet::sgd::{BatchAcc, SampleResult};
use spg_tensor::Tensor;

use crate::wire::{read_frame, write_frame, Message, WireError};
use crate::ClusterError;

/// Floats per all-reduce wire chunk unless configured otherwise. Chunk
/// size never changes the bits, only the framing.
pub const DEFAULT_CHUNK_FLOATS: usize = 4096;

/// The overlap of layer `[start, start + len)` with the flat element
/// range `[off, off + n)`, as (range within the layer, range within the
/// flat range).
fn overlap(start: usize, len: usize, off: usize, n: usize) -> Option<(Range<usize>, Range<usize>)> {
    let (lo, hi) = (off.max(start), (off + n).min(start + len));
    (lo < hi).then(|| (lo - start..hi - start, lo - off..hi - off))
}

/// Calls `f(layer_piece, flat_range)` for each per-layer piece of the
/// flat element range `[off, off + n)` of `grads`.
fn for_each_piece(grads: &[Tensor], off: usize, n: usize, mut f: impl FnMut(&[f32], Range<usize>)) {
    let mut start = 0;
    for t in grads {
        if let Some((layer, flat)) = overlap(start, t.len(), off, n) {
            f(&t.as_slice()[layer], flat);
        }
        start += t.len();
    }
}

/// Copies `data` over the flat element range starting at `off` of
/// `grads`.
fn scatter(grads: &mut [Tensor], off: usize, data: &[f32]) {
    let mut start = 0;
    for t in grads {
        let len = t.len();
        if let Some((layer, flat)) = overlap(start, len, off, data.len()) {
            t.as_mut_slice()[layer].copy_from_slice(&data[flat]);
        }
        start += len;
    }
}

/// Flat element range `[off, off + n)` of `grads` as one vector.
fn gather(grads: &[Tensor], off: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0; n];
    for_each_piece(grads, off, n, |piece, flat| out[flat].copy_from_slice(piece));
    out
}

/// The two directed stream halves a rank holds in the ring topology.
pub struct RingLink<'a> {
    /// This rank's position.
    pub rank: usize,
    /// Total rank count.
    pub world: usize,
    /// Stream from the previous rank `(rank + world - 1) % world`.
    pub rx_prev: &'a mut dyn Read,
    /// Stream to the next rank `(rank + 1) % world`.
    pub tx_next: &'a mut dyn Write,
}

/// Maps a transport error on the ring to a typed cluster error.
fn ring_err(rank: usize, epoch: u32, batch: u32, e: WireError) -> ClusterError {
    ClusterError::RingFault {
        rank,
        epoch: epoch as usize,
        batch: batch as usize,
        message: e.to_string(),
    }
}

/// Sequence-checks a received frame against the current (epoch, batch).
fn check_seq(
    rank: usize,
    epoch: u32,
    batch: u32,
    got_epoch: u32,
    got_batch: u32,
) -> Result<(), ClusterError> {
    if got_epoch != epoch || got_batch != batch {
        return Err(ClusterError::Protocol {
            rank,
            detail: format!(
                "sequence mismatch: expected epoch {epoch} batch {batch}, \
                 peer sent epoch {got_epoch} batch {got_batch}"
            ),
        });
    }
    Ok(())
}

/// Sends the accumulator as one `AccMeta` plus chunked frames of
/// `kind` (0x10 reduce / 0x11 broadcast).
fn send_acc(
    tx: &mut dyn Write,
    broadcast: bool,
    epoch: u32,
    batch: u32,
    acc: &BatchAcc,
    chunk_floats: usize,
) -> Result<(), WireError> {
    write_frame(tx, &meta(epoch, batch, acc))?;
    let grad_len: usize = acc.grads.iter().map(Tensor::len).sum();
    let step = chunk_floats.max(1);
    for (i, off) in (0..grad_len).step_by(step).enumerate() {
        let chunk = u32::try_from(i).expect("chunk index fits u32");
        let data = gather(&acc.grads, off, step.min(grad_len - off));
        let msg = if broadcast {
            Message::BroadcastChunk { epoch, batch, chunk, data }
        } else {
            Message::ReduceChunk { epoch, batch, chunk, data }
        };
        write_frame(tx, &msg)?;
        spg_telemetry::record_counter(
            if broadcast { "cluster.ring.broadcast_chunks" } else { "cluster.ring.reduce_chunks" },
            1,
        );
    }
    Ok(())
}

/// Receives a sequence-checked `AccMeta` frame into `acc`'s scalars.
fn recv_meta(
    rx: &mut dyn Read,
    rank: usize,
    epoch: u32,
    batch: u32,
    acc: &mut BatchAcc,
) -> Result<(), ClusterError> {
    match read_frame(rx).map_err(|e| ring_err(rank, epoch, batch, e))? {
        Message::AccMeta { epoch: ge, batch: gb, loss_sum_bits, correct, sparsity_bits } => {
            check_seq(rank, epoch, batch, ge, gb)?;
            acc.loss_sum = f64::from_bits(loss_sum_bits);
            acc.correct = usize::try_from(correct).map_err(|_| ClusterError::Protocol {
                rank,
                detail: format!("AccMeta correct count {correct} overflows usize"),
            })?;
            acc.sparsity_sums = sparsity_bits.into_iter().map(f64::from_bits).collect();
            Ok(())
        }
        other => Err(ClusterError::Protocol {
            rank,
            detail: format!("expected AccMeta, got frame type {:#04x}", other.tag()),
        }),
    }
}

/// Receives one sequence-checked gradient chunk of the expected kind
/// and index, returning its data.
fn recv_chunk(
    rx: &mut dyn Read,
    rank: usize,
    broadcast: bool,
    epoch: u32,
    batch: u32,
    expect_chunk: usize,
) -> Result<Vec<f32>, ClusterError> {
    let msg = read_frame(rx).map_err(|e| ring_err(rank, epoch, batch, e))?;
    let (ge, gb, gc, data, got_broadcast) = match msg {
        Message::ReduceChunk { epoch, batch, chunk, data } => (epoch, batch, chunk, data, false),
        Message::BroadcastChunk { epoch, batch, chunk, data } => (epoch, batch, chunk, data, true),
        other => {
            return Err(ClusterError::Protocol {
                rank,
                detail: format!("expected gradient chunk, got frame type {:#04x}", other.tag()),
            })
        }
    };
    check_seq(rank, epoch, batch, ge, gb)?;
    if got_broadcast != broadcast || gc as usize != expect_chunk {
        return Err(ClusterError::Protocol {
            rank,
            detail: format!(
                "chunk sequence violation: expected {} chunk {expect_chunk}, got {} chunk {gc}",
                if broadcast { "broadcast" } else { "reduce" },
                if got_broadcast { "broadcast" } else { "reduce" },
            ),
        });
    }
    Ok(data)
}

/// The `AccMeta` frame carrying `acc`'s scalars.
fn meta(epoch: u32, batch: u32, acc: &BatchAcc) -> Message {
    Message::AccMeta {
        epoch,
        batch,
        loss_sum_bits: acc.loss_sum.to_bits(),
        correct: acc.correct as u64,
        sparsity_bits: acc.sparsity_sums.iter().map(|s| s.to_bits()).collect(),
    }
}

/// Runs the ordered chain-in-ring all-reduce for one batch.
///
/// `samples` are this rank's contributions in its local sample order;
/// `acc` (shaped for the network by [`BatchAcc::for_network`], identical
/// on every rank) is reset and receives the finished accumulator —
/// identical, bit for bit, on every rank, and equal to what the
/// single-process pool computes for the same batch.
///
/// # Errors
///
/// [`ClusterError::RingFault`] when a neighbor drops mid-reduce (the
/// typed mid-all-reduce failure the recovery drill exercises) and
/// [`ClusterError::Protocol`] on sequence violations.
pub fn ring_allreduce(
    link: &mut RingLink<'_>,
    epoch: u32,
    batch: u32,
    samples: &[SampleResult],
    acc: &mut BatchAcc,
    chunk_floats: usize,
) -> Result<(), ClusterError> {
    let (rank, world) = (link.rank, link.world);
    acc.reset();
    let grad_len: usize = acc.grads.iter().map(Tensor::len).sum();
    let step = chunk_floats.max(1);
    let chunks = grad_len.div_ceil(step);

    // ---- Reduce leg: 0 → 1 → … → W-1, folding in rank order. ----
    if rank == 0 {
        for s in samples {
            acc.absorb(s.loss, s.correct, &s.param_grads, &s.grad_sparsity);
        }
        if world == 1 {
            return Ok(());
        }
        send_acc(link.tx_next, false, epoch, batch, acc, chunk_floats)
            .map_err(|e| ring_err(rank, epoch, batch, e))?;
    } else {
        recv_meta(link.rx_prev, rank, epoch, batch, acc)?;
        for s in samples {
            acc.absorb_scalars(s.loss, s.correct, &s.grad_sparsity);
        }
        let last = rank == world - 1;
        if !last {
            write_frame(link.tx_next, &meta(epoch, batch, acc))
                .map_err(|e| ring_err(rank, epoch, batch, e))?;
        }
        for c in 0..chunks {
            let mut data = recv_chunk(link.rx_prev, rank, false, epoch, batch, c)?;
            let off = c * step;
            // Fold this rank's samples onto the incoming accumulator
            // slice, sample by sample: per element the addition order is
            // the global sample order, exactly the pool's association.
            for s in samples {
                for_each_piece(&s.param_grads, off, data.len(), |piece, flat| {
                    for (a, &g) in data[flat].iter_mut().zip(piece) {
                        *a += g;
                    }
                });
            }
            scatter(&mut acc.grads, off, &data);
            if !last {
                write_frame(
                    link.tx_next,
                    &Message::ReduceChunk {
                        epoch,
                        batch,
                        chunk: u32::try_from(c).expect("chunk index fits u32"),
                        data,
                    },
                )
                .map_err(|e| ring_err(rank, epoch, batch, e))?;
                spg_telemetry::record_counter("cluster.ring.reduce_chunks", 1);
            }
        }
    }

    // ---- Broadcast leg: W-1 → 0 → 1 → … → W-2. ----
    if rank == world - 1 {
        send_acc(link.tx_next, true, epoch, batch, acc, chunk_floats)
            .map_err(|e| ring_err(rank, epoch, batch, e))?;
    } else {
        let forward = (rank + 1) % world != world - 1;
        recv_meta(link.rx_prev, rank, epoch, batch, acc)?;
        if forward {
            write_frame(link.tx_next, &meta(epoch, batch, acc))
                .map_err(|e| ring_err(rank, epoch, batch, e))?;
        }
        for c in 0..chunks {
            let data = recv_chunk(link.rx_prev, rank, true, epoch, batch, c)?;
            let off = c * step;
            scatter(&mut acc.grads, off, &data);
            if forward {
                write_frame(
                    link.tx_next,
                    &Message::BroadcastChunk {
                        epoch,
                        batch,
                        chunk: u32::try_from(c).expect("chunk index fits u32"),
                        data,
                    },
                )
                .map_err(|e| ring_err(rank, epoch, batch, e))?;
                spg_telemetry::record_counter("cluster.ring.broadcast_chunks", 1);
            }
        }
    }
    spg_telemetry::record_counter("cluster.ring.batches", 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spg_convnet::layer::{ConvLayer, FcLayer, MaxPoolLayer, ReluLayer};
    use spg_convnet::{ConvSpec, Network};
    use spg_tensor::Shape3;
    use std::os::unix::net::UnixStream;

    /// Conv (40 params), two parameter-free layers, fc (111 params): a
    /// gradient whose chunks straddle layer boundaries and empty layers.
    fn net() -> Network {
        let mut rng = SmallRng::seed_from_u64(3);
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

    /// Synthetic per-rank sample blocks: `world` ranks, `per_rank`
    /// samples each, with non-integral gradients so that any change of
    /// association shows in the bits.
    fn blocks(net: &Network, world: usize, per_rank: usize) -> Vec<Vec<SampleResult>> {
        (0..world)
            .map(|w| {
                (0..per_rank)
                    .map(|j| {
                        let g = (w * per_rank + j) as f32;
                        let mut s = SampleResult::for_network(net);
                        let mut e = 0.0f32;
                        for t in &mut s.param_grads {
                            for v in t.iter_mut() {
                                *v = e.sin() * 0.25 + g * 0.001;
                                e += 1.0;
                            }
                        }
                        s.loss = 0.5 + g * 0.01;
                        s.correct = j % 2 == 0;
                        s.grad_sparsity.fill(0.25 + f64::from(g) * 0.001);
                        s
                    })
                    .collect()
            })
            .collect()
    }

    /// The oracle: the single-process pool's fold (global sample order).
    fn sequential_fold(net: &Network, blocks: &[Vec<SampleResult>]) -> BatchAcc {
        let mut acc = BatchAcc::for_network(net);
        for s in blocks.iter().flatten() {
            acc.absorb(s.loss, s.correct, &s.param_grads, &s.grad_sparsity);
        }
        acc
    }

    /// Runs the ring all-reduce across `world` threads over socketpairs.
    fn run_ring(net: &Network, blocks: Vec<Vec<SampleResult>>, chunk: usize) -> Vec<BatchAcc> {
        let world = blocks.len();
        // Edge r -> (r+1) % world: pair.0 is r's tx, pair.1 is next's rx.
        let mut txs: Vec<Option<UnixStream>> = Vec::new();
        let mut rxs: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
        for r in 0..world {
            let (a, b) = UnixStream::pair().expect("socketpair");
            txs.push(Some(a));
            rxs[(r + 1) % world] = Some(b);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .into_iter()
                .enumerate()
                .zip(txs.iter_mut().zip(rxs.iter_mut()))
                .map(|((rank, samples), (tx, rx))| {
                    let mut tx = tx.take().unwrap();
                    let mut rx = rx.take().unwrap();
                    let mut acc = BatchAcc::for_network(net);
                    scope.spawn(move || {
                        let mut link = RingLink { rank, world, rx_prev: &mut rx, tx_next: &mut tx };
                        ring_allreduce(&mut link, 1, 0, &samples, &mut acc, chunk).unwrap();
                        acc
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn ring_matches_sequential_fold_bit_for_bit() {
        let net = net();
        for world in [1usize, 2, 3, 5] {
            for chunk in [3usize, 16, 1024] {
                let blocks = blocks(&net, world, 4);
                let expect = sequential_fold(&net, &blocks);
                let got = run_ring(&net, blocks, chunk);
                for (rank, acc) in got.iter().enumerate() {
                    assert_eq!(
                        acc.loss_sum.to_bits(),
                        expect.loss_sum.to_bits(),
                        "world {world} chunk {chunk} rank {rank} loss"
                    );
                    assert_eq!(acc.correct, expect.correct);
                    for (a, b) in acc.grads.iter().zip(&expect.grads) {
                        for (a, b) in a.iter().zip(b.iter()) {
                            assert_eq!(a.to_bits(), b.to_bits(), "world {world} chunk {chunk}");
                        }
                    }
                    for (a, b) in acc.sparsity_sums.iter().zip(&expect.sparsity_sums) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn sequence_mismatch_is_a_typed_protocol_error() {
        let net = net();
        let (mut a, mut b) = UnixStream::pair().unwrap();
        // Rank 1 of 2 expects epoch 1 / batch 0; its "previous rank"
        // sends epoch 9 instead.
        let acc = BatchAcc::for_network(&net);
        let sender = std::thread::spawn(move || {
            send_acc(&mut a, false, 9, 0, &acc, 4).unwrap();
        });
        let err = {
            let (mut dead_tx, _keep) = UnixStream::pair().unwrap();
            let mut link = RingLink { rank: 1, world: 2, rx_prev: &mut b, tx_next: &mut dead_tx };
            let mut acc = BatchAcc::for_network(&net);
            ring_allreduce(&mut link, 1, 0, &[], &mut acc, 4).unwrap_err()
        };
        sender.join().unwrap();
        assert!(
            matches!(err, ClusterError::Protocol { rank: 1, .. }),
            "expected Protocol error, got {err:?}"
        );
    }

    #[test]
    fn dropped_peer_is_a_typed_ring_fault() {
        let (a, mut b) = UnixStream::pair().unwrap();
        drop(a); // Peer dies before sending anything.
        let (mut dead_tx, _keep) = UnixStream::pair().unwrap();
        let mut link = RingLink { rank: 1, world: 2, rx_prev: &mut b, tx_next: &mut dead_tx };
        let mut acc = BatchAcc::for_network(&net());
        let err = ring_allreduce(&mut link, 3, 7, &[], &mut acc, 4).unwrap_err();
        match err {
            ClusterError::RingFault { rank, epoch, batch, .. } => {
                assert_eq!((rank, epoch, batch), (1, 3, 7));
            }
            other => panic!("expected RingFault, got {other:?}"),
        }
    }
}
