//! Double-buffered prefetch pipeline (the paper's §6.3, for real).
//!
//! The analytic [`DoubleBufferModel`](crate::buffer::DoubleBufferModel)
//! predicts the epoch time when buffer filling overlaps SGD; this module
//! provides the actual mechanism: a *producer* thread fills buffer `B`
//! (block reads + tuple-level shuffle) while the consumer drains buffer `A`
//! into the training loop, the two swapping through a bounded channel of
//! capacity [`PIPELINE_SLOTS`]. One batch can sit in the channel while the
//! producer builds the next — exactly the two in-flight buffers of double
//! buffering.
//!
//! ## Design rules
//!
//! * **Scoped, not detached.** [`run_epoch_pipeline`] spawns the producer
//!   inside [`std::thread::scope`], so the producer may mutably borrow the
//!   caller's `SimDevice`, operators, or shuffle strategy for the duration
//!   of the epoch. No state is cloned and no stats need merging: simulated
//!   I/O is charged to the *real* device, fault injection and retry run
//!   their normal code path (just on the producer thread), and when the
//!   scope ends the caller's borrows are back.
//! * **Determinism.** The producer runs the *same* fill code (same RNG
//!   streams, same visit order) as the serial path; the channel preserves
//!   send order; there is exactly one producer and one consumer. Hence the
//!   consumer observes tuples in the identical order as serial execution,
//!   and trained models are bit-identical for a fixed seed.
//! * **Clock accounting.** The simulated clock knows nothing about threads:
//!   fills charge `io_seconds` as usual, and the epoch-time formula is the
//!   caller's job (`DoubleBufferModel::double_buffer` over the per-fill
//!   io/compute vectors when pipelining, `single_buffer` otherwise). Wall
//!   clock, by contrast, overlaps for real — that is the point.
//! * **Failure.** A producer error travels to the consumer side as
//!   [`PipelineError::Producer`] once in-flight batches drain — no hang. A
//!   consumer that stops early just drops its receiver; the producer's next
//!   send fails, it winds down, and the scope joins cleanly. Producer
//!   panics resurface as [`PipelineError::ProducerPanicked`].
//!
//! Telemetry: each fill runs under a `pipeline.fill` span (wall + sim);
//! consumer waits are recorded under `pipeline.stall` spans, producer waits
//! in the `pipeline.backpressure.wall_seconds` histogram.

use std::fmt;
use std::ops::Deref;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

use corgipile_telemetry::{Span, Telemetry};

use crate::tuple::{tuple_clone_count, Tuple};

/// Bounded-channel capacity between producer and consumer: one batch in
/// flight plus one being built equals the paper's two buffers.
pub const PIPELINE_SLOTS: usize = 1;

/// A shared, immutable reference to one tuple of an `Arc`-backed block.
///
/// The executor moves columnar [`TupleBatch`](crate::TupleBatch)es, not
/// `TupleRef`s; this type stays for the `Model::sgd_batch` entry point
/// that callers outside the engine still use.
#[derive(Debug, Clone)]
pub struct TupleRef {
    block: Arc<Vec<Tuple>>,
    idx: u32,
}

impl TupleRef {
    /// Reference tuple `idx` of `block`.
    pub fn new(block: Arc<Vec<Tuple>>, idx: usize) -> Self {
        debug_assert!(idx < block.len());
        TupleRef {
            block,
            idx: idx as u32,
        }
    }

    /// The referenced tuple.
    pub fn tuple(&self) -> &Tuple {
        &self.block[self.idx as usize]
    }
}

impl Deref for TupleRef {
    type Target = Tuple;

    fn deref(&self) -> &Tuple {
        self.tuple()
    }
}

/// Wrap every tuple of an `Arc`-shared block in a [`TupleRef`].
pub fn block_refs(block: &Arc<Vec<Tuple>>) -> impl Iterator<Item = TupleRef> + '_ {
    (0..block.len()).map(|i| TupleRef::new(Arc::clone(block), i))
}

/// Error surfaced on the consumer side of [`run_epoch_pipeline`].
#[derive(Debug)]
pub enum PipelineError<E> {
    /// The producer closure returned a typed error.
    Producer(E),
    /// The producer thread panicked; the payload's message is preserved.
    ProducerPanicked(String),
}

impl<E: fmt::Display> fmt::Display for PipelineError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Producer(e) => write!(f, "pipeline producer failed: {e}"),
            PipelineError::ProducerPanicked(msg) => {
                write!(f, "pipeline producer panicked: {msg}")
            }
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for PipelineError<E> {}

/// What one epoch of pipelined execution did, beyond its batches.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineReport {
    /// Batches the producer filled and handed over.
    pub fills: u64,
    /// Batches the consumer actually received (lower if it stopped early).
    pub batches_consumed: u64,
    /// `Tuple::clone` calls made on the producer thread — the columnar
    /// fill paths keep this at exactly 0.
    pub producer_tuple_clones: u64,
    /// Wall seconds the consumer spent waiting for the producer.
    pub stall_wall_seconds: f64,
    /// Wall seconds the producer spent blocked on a full channel.
    pub backpressure_wall_seconds: f64,
}

/// Producer-side handle: fill batches and hand them to the consumer.
pub struct PipelineSender<T> {
    tx: SyncSender<T>,
    telemetry: Telemetry,
    fills: u64,
    backpressure_wall_seconds: f64,
    hung_up: bool,
}

impl<T> PipelineSender<T> {
    /// Run `fill` under a `pipeline.fill` span and send its batch.
    ///
    /// The closure receives the span to attribute simulated I/O seconds
    /// (`Span::add_sim_seconds`). Returns `false` once the consumer has
    /// hung up — the producer should stop filling; the batch that observed
    /// the hang-up is dropped.
    pub fn fill_and_send<F: FnOnce(&mut Span) -> T>(&mut self, fill: F) -> bool {
        if self.hung_up {
            return false;
        }
        let mut span = self.telemetry.span("pipeline.fill");
        let batch = fill(&mut span);
        span.finish();
        let blocked_at = Instant::now();
        match self.tx.send(batch) {
            Ok(()) => {
                self.backpressure_wall_seconds += blocked_at.elapsed().as_secs_f64();
                self.fills += 1;
                true
            }
            Err(_) => {
                self.hung_up = true;
                false
            }
        }
    }

    /// Whether the consumer has already hung up.
    pub fn consumer_gone(&self) -> bool {
        self.hung_up
    }
}

/// Run one epoch with a producer thread overlapping the consumer.
///
/// `produce` executes on a scoped thread and pushes batches through the
/// bounded channel via [`PipelineSender::fill_and_send`]; `consume` runs on
/// the calling thread for every batch, in send order, returning `false` to
/// stop early. Typed producer errors and panics are reported after the
/// scope joins — never by hanging. See the module docs for the determinism
/// and accounting rules.
pub fn run_epoch_pipeline<T, E, P, C>(
    telemetry: &Telemetry,
    produce: P,
    mut consume: C,
) -> Result<PipelineReport, PipelineError<E>>
where
    T: Send,
    E: Send,
    P: FnOnce(&mut PipelineSender<T>) -> Result<(), E> + Send,
    C: FnMut(T) -> bool,
{
    let (tx, rx) = std::sync::mpsc::sync_channel::<T>(PIPELINE_SLOTS);
    std::thread::scope(|scope| {
        let producer_telemetry = telemetry.clone();
        let producer = scope.spawn(move || {
            let clones_before = tuple_clone_count();
            let mut sender = PipelineSender {
                tx,
                telemetry: producer_telemetry,
                fills: 0,
                backpressure_wall_seconds: 0.0,
                hung_up: false,
            };
            let outcome = produce(&mut sender);
            let clones = tuple_clone_count() - clones_before;
            (
                outcome,
                sender.fills,
                sender.backpressure_wall_seconds,
                clones,
            )
        });

        let mut report = PipelineReport::default();
        let mut rx = Some(rx);
        while let Some(receiver) = rx.as_ref() {
            let batch = recv_with_stall(receiver, telemetry, &mut report);
            match batch {
                Some(b) => {
                    report.batches_consumed += 1;
                    if !consume(b) {
                        // Early stop: drop the receiver so the producer's
                        // next send fails and it winds down.
                        rx = None;
                    }
                }
                None => rx = None,
            }
        }

        match producer.join() {
            Ok((outcome, fills, backpressure, clones)) => {
                report.fills = fills;
                report.backpressure_wall_seconds = backpressure;
                report.producer_tuple_clones = clones;
                match outcome {
                    Ok(()) => Ok(report),
                    Err(e) => Err(PipelineError::Producer(e)),
                }
            }
            Err(payload) => Err(PipelineError::ProducerPanicked(panic_message(payload))),
        }
    })
}

/// Receive one batch, charging any wait to `pipeline.stall`.
fn recv_with_stall<T>(
    rx: &Receiver<T>,
    telemetry: &Telemetry,
    report: &mut PipelineReport,
) -> Option<T> {
    // Fast path: a batch is already waiting, no stall to record.
    match rx.try_recv() {
        Ok(batch) => return Some(batch),
        Err(TryRecvError::Disconnected) => return None,
        Err(TryRecvError::Empty) => {}
    }
    let span = telemetry.span("pipeline.stall");
    let waited_from = Instant::now();
    let got = rx.recv().ok();
    if got.is_some() {
        report.stall_wall_seconds += waited_from.elapsed().as_secs_f64();
        span.finish();
    } else {
        // End of stream is not a stall.
        span.cancel();
    }
    got
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;

    #[test]
    fn batches_arrive_in_send_order() {
        let tel = Telemetry::enabled();
        let mut got = Vec::new();
        let report = run_epoch_pipeline::<_, StorageError, _, _>(
            &tel,
            |sender| {
                for i in 0..16 {
                    if !sender.fill_and_send(|_| i) {
                        break;
                    }
                }
                Ok(())
            },
            |i| {
                got.push(i);
                true
            },
        )
        .unwrap();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        assert_eq!(report.fills, 16);
        assert_eq!(report.batches_consumed, 16);
    }

    #[test]
    fn producer_error_is_typed_and_does_not_hang() {
        let tel = Telemetry::disabled();
        let mut got = Vec::new();
        let err = run_epoch_pipeline(
            &tel,
            |sender| {
                sender.fill_and_send(|_| 1u32);
                sender.fill_and_send(|_| 2u32);
                Err(StorageError::ReadFailed {
                    block: 7,
                    attempts: 3,
                    message: "dead block".into(),
                })
            },
            |i| {
                got.push(i);
                true
            },
        )
        .unwrap_err();
        // In-flight batches drain first, then the typed error surfaces.
        assert_eq!(got, vec![1, 2]);
        match err {
            PipelineError::Producer(StorageError::ReadFailed {
                block, attempts, ..
            }) => {
                assert_eq!((block, attempts), (7, 3));
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn early_consumer_stop_joins_cleanly() {
        let tel = Telemetry::disabled();
        let mut seen = 0u64;
        let report = run_epoch_pipeline::<_, StorageError, _, _>(
            &tel,
            |sender| {
                let mut sent_all = true;
                for i in 0..1000u64 {
                    if !sender.fill_and_send(|_| i) {
                        sent_all = false;
                        break;
                    }
                }
                assert!(!sent_all, "consumer hang-up should stop the producer");
                assert!(sender.consumer_gone());
                Ok(())
            },
            |_| {
                seen += 1;
                seen < 3
            },
        )
        .unwrap();
        assert_eq!(seen, 3);
        assert_eq!(report.batches_consumed, 3);
        assert!(report.fills < 1000);
    }

    #[test]
    fn producer_panic_is_reported_not_propagated() {
        let tel = Telemetry::disabled();
        let err = run_epoch_pipeline::<u32, StorageError, _, _>(
            &tel,
            |_| panic!("boom in producer"),
            |_| true,
        )
        .unwrap_err();
        match err {
            PipelineError::ProducerPanicked(msg) => assert!(msg.contains("boom")),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn tuple_refs_share_the_block_without_cloning() {
        let block: Arc<Vec<Tuple>> = Arc::new(
            (0..10)
                .map(|i| Tuple::dense(i, vec![i as f32], 1.0))
                .collect(),
        );
        let before = tuple_clone_count();
        let mut refs: Vec<TupleRef> = block_refs(&block).collect();
        refs.swap(0, 9);
        refs.swap(3, 7);
        assert_eq!(refs[0].id, 9);
        assert_eq!(refs[9].tuple().id, 0);
        assert_eq!(refs[3].features.dim(), 1);
        assert_eq!(
            tuple_clone_count(),
            before,
            "TupleRef must never clone tuples"
        );
    }

    #[test]
    fn pipeline_reports_zero_producer_clones_for_ref_batches() {
        let block: Arc<Vec<Tuple>> =
            Arc::new((0..100).map(|i| Tuple::dense(i, vec![0.5], 1.0)).collect());
        let tel = Telemetry::enabled();
        let mut drained = 0usize;
        let report = run_epoch_pipeline::<_, StorageError, _, _>(
            &tel,
            |sender| {
                for chunk in 0..10usize {
                    let batch: Vec<TupleRef> = (0..10)
                        .map(|i| TupleRef::new(Arc::clone(&block), chunk * 10 + i))
                        .collect();
                    if !sender.fill_and_send(|_| batch) {
                        break;
                    }
                }
                Ok(())
            },
            |batch: Vec<TupleRef>| {
                drained += batch.len();
                true
            },
        )
        .unwrap();
        assert_eq!(drained, 100);
        assert_eq!(report.producer_tuple_clones, 0);
    }

    #[test]
    fn stress_many_epochs_small_buffers_preserve_order() {
        // Loom-free determinism stress: whatever the thread interleaving,
        // the consumer must observe the producer's exact send order.
        for seed in 0u64..8 {
            for epoch in 0..4u64 {
                let tel = Telemetry::disabled();
                let expected: Vec<u64> = (0..64)
                    .map(|i| i ^ (seed.wrapping_mul(0x9E37) + epoch))
                    .collect();
                let send_side = expected.clone();
                let mut got = Vec::new();
                run_epoch_pipeline::<_, StorageError, _, _>(
                    &tel,
                    move |sender| {
                        for chunk in send_side.chunks(3) {
                            if !sender.fill_and_send(|_| chunk.to_vec()) {
                                break;
                            }
                        }
                        Ok(())
                    },
                    |chunk: Vec<u64>| {
                        got.extend(chunk);
                        true
                    },
                )
                .unwrap();
                assert_eq!(got, expected, "order diverged at seed {seed} epoch {epoch}");
            }
        }
    }
}
