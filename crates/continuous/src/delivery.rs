//! Per-subscriber delivery queues for the asynchronous pipeline.
//!
//! Refresh workers *produce* [`ResultDelta`]s; subscribers *consume* them at
//! their own pace through a bounded queue.  A full queue sheds its oldest
//! delta (counted in [`DeliveryReceiver::dropped`]) instead of blocking the
//! shard's refresh worker, so a slow consumer back-pressures only itself and
//! ingestion latency stays independent of how fast — or whether — any
//! subscriber drains.
//!
//! A queue is attached to a live subscription with
//! [`SubscriptionManager::attach_delivery`](crate::SubscriptionManager::attach_delivery)
//! and hands back a [`DeliveryReceiver`] — a `Receiver`-style handle that can
//! be moved to any consumer thread.  Every delta the subscription's refreshes
//! produce from then on (through either the synchronous or the asynchronous
//! ingestion API) is enqueued, stamped with the slide number it belongs to,
//! until the subscription is removed or the queue detached.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ksir_telemetry::{Counter, Histogram, Telemetry, TraceEventKind};

use crate::subscription::ResultDelta;

/// One delta as delivered to a subscriber, stamped with the slide (1-based
/// ingestion epoch) that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The slide this delta belongs to (`ManagerStats::slides` at the time
    /// the bucket was ingested).
    pub slide: u64,
    /// The result change itself.
    pub delta: ResultDelta,
}

/// Queue configuration fixed at attach time.
///
/// # Example
///
/// ```
/// use ksir_continuous::{DeliveryConfig, SubscriptionManager};
/// use ksir_core::{fixtures::paper_example, Algorithm, KsirQuery};
/// use ksir_types::QueryVector;
///
/// let example = paper_example();
/// let mut manager = SubscriptionManager::new(example.empty_engine());
/// let query = KsirQuery::new(2, QueryVector::new(vec![0.5, 0.5])?)?;
/// let sub = manager.subscribe(query, Algorithm::Mtts)?;
///
/// // A small queue: on overflow it sheds its oldest delta.
/// let config = DeliveryConfig::default().with_capacity(8);
/// let receiver = manager.attach_delivery(sub, config).unwrap();
///
/// for (element, tv) in example.stream() {
///     let ts = element.ts;
///     manager.ingest_bucket(vec![(element, tv)], ts)?;
/// }
/// // Every delta is stamped with the 1-based slide that produced it.
/// let deliveries = receiver.drain();
/// assert!(!deliveries.is_empty());
/// assert!(deliveries.windows(2).all(|w| w[0].slide <= w[1].slide));
/// assert_eq!(receiver.dropped(), 0);
/// # Ok::<(), ksir_types::KsirError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryConfig {
    /// Maximum queued deliveries; a send to a full queue sheds the oldest.
    pub capacity: usize,
}

impl Default for DeliveryConfig {
    fn default() -> Self {
        DeliveryConfig { capacity: 1024 }
    }
}

impl DeliveryConfig {
    /// Overrides the capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }
}

#[derive(Debug, Default)]
struct QueueState {
    items: VecDeque<Delivery>,
    dropped: u64,
    /// Producer side gone: the subscription was removed or detached.
    closed: bool,
    /// Consumer side gone: the receiver was dropped.
    receiver_alive: bool,
}

/// The queue layer's handle into the manager's [`Telemetry`] bundle:
/// pre-resolved `delivery.*` counters plus the shared trace.
///
/// Accounting convention: `delivery.enqueued` counts deltas **accepted into
/// a queue**, `delivery.dropped` counts accepted deltas **later shed** from a
/// full queue — so `enqueued - dropped` equals what a draining consumer
/// receives.  Sends to a closed queue or one whose receiver is gone are not
/// counted at all, matching [`DeliveryReceiver::dropped`].
#[derive(Debug, Clone)]
pub(crate) struct DeliveryTelemetry {
    bundle: Arc<Telemetry>,
    enqueued: Arc<Counter>,
    dropped: Arc<Counter>,
    /// Ingest-to-acceptance freshness of every delta a queue **accepted** —
    /// recorded at enqueue, so its count equals `delivery.enqueued` exactly
    /// (the slide-for-slide e2e oracle the chaos harness asserts).
    e2e: Arc<Histogram>,
    /// Ingest-to-shed age of every delta a full queue (or a counted fault
    /// shed) dropped — the per-outcome twin of `delivery.e2e`.
    e2e_dropped: Arc<Histogram>,
}

impl DeliveryTelemetry {
    pub(crate) fn new(bundle: Arc<Telemetry>) -> Self {
        let registry = bundle.registry();
        DeliveryTelemetry {
            enqueued: registry.counter("delivery.enqueued"),
            dropped: registry.counter("delivery.dropped"),
            e2e: registry.histogram("delivery.e2e"),
            e2e_dropped: registry.histogram("delivery.e2e.dropped"),
            bundle,
        }
    }

    /// Records one end-to-end freshness sample for `slide` on `histogram`:
    /// the delta's age measured from the instant its bucket hit the index
    /// (the [`FreshnessClock`](ksir_telemetry::FreshnessClock) stamp).  A
    /// slide whose stamp was capacity-pruned contributes no sample — old
    /// epochs fall out of the clock and the histogram together.
    fn observe_e2e(&self, histogram: &Histogram, slide: u64) {
        if let Some(stamp) = self.bundle.freshness().stamp_of(slide) {
            let age = self.bundle.now_nanos().saturating_sub(stamp);
            histogram.record(Duration::from_nanos(age));
        }
    }
}

/// Producer half, held by the manager's delivery registry and used by refresh
/// workers.  Crate-internal: subscribers only ever see the receiver.
#[derive(Debug, Clone)]
pub(crate) struct DeliverySender {
    channel: Arc<Mutex<QueueState>>,
    capacity: usize,
    telemetry: Option<DeliveryTelemetry>,
}

impl DeliverySender {
    /// Enqueues one delta, shedding the oldest queued one if the queue is
    /// full.
    pub(crate) fn send(&self, slide: u64, delta: ResultDelta) {
        let mut state = self.channel.lock().unwrap_or_else(|p| p.into_inner());
        if !state.receiver_alive || state.closed {
            // No consumer, or the queue was closed (unsubscribe/detach):
            // deliveries are shed uncounted.
            return;
        }
        if state.items.len() >= self.capacity {
            let shed = state.items.pop_front();
            state.dropped += 1;
            if let (Some(telemetry), Some(shed)) = (&self.telemetry, shed) {
                telemetry.dropped.inc();
                telemetry.observe_e2e(&telemetry.e2e_dropped, shed.slide);
                telemetry.bundle.record(
                    shed.slide,
                    None,
                    TraceEventKind::DeltaDropped {
                        subscription: shed.delta.subscription.raw(),
                    },
                );
            }
        }
        let subscription = delta.subscription.raw();
        state.items.push_back(Delivery { slide, delta });
        if let Some(telemetry) = &self.telemetry {
            telemetry.enqueued.inc();
            telemetry.observe_e2e(&telemetry.e2e, slide);
            telemetry
                .bundle
                .record(slide, None, TraceEventKind::DeltaDelivered { subscription });
        }
    }

    /// Accounts a delta lost to a send-path fault as a **counted** shed on
    /// this queue, without enqueueing anything: the queue's `dropped` tally,
    /// the `delivery.dropped` counter, and a
    /// [`TraceEventKind::DeltaDropped`] event are all charged, exactly as if
    /// a full queue had shed the delta.  Called by the worker's
    /// delivery seam after it catches a poisoned (panicking) send, keeping
    /// `delivered + dropped == result_changes` reconciled through the fault.
    /// No-op once the consumer is gone or the queue closed — matching
    /// [`DeliverySender::send`], which doesn't count those sheds either.
    pub(crate) fn shed(&self, slide: u64, subscription: crate::subscription::SubscriptionId) {
        let mut state = self.channel.lock().unwrap_or_else(|p| p.into_inner());
        if !state.receiver_alive || state.closed {
            return;
        }
        state.dropped += 1;
        if let Some(telemetry) = &self.telemetry {
            telemetry.dropped.inc();
            telemetry.observe_e2e(&telemetry.e2e_dropped, slide);
            telemetry.bundle.record(
                slide,
                None,
                TraceEventKind::DeltaDropped {
                    subscription: subscription.raw(),
                },
            );
        }
    }

    /// Deliveries currently queued (the producer-side view the manager sums
    /// into the `delivery.queue_depth` gauge).
    pub(crate) fn len(&self) -> usize {
        self.channel
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .items
            .len()
    }

    /// Marks the producer side closed (subscription removed / detached).
    pub(crate) fn close(&self) {
        let mut state = self.channel.lock().unwrap_or_else(|p| p.into_inner());
        state.closed = true;
    }
}

/// Consumer half of a subscription's delivery queue.
///
/// `Receiver`-style: poll with [`DeliveryReceiver::try_recv`] or take
/// everything queued with [`DeliveryReceiver::drain`].  Dropping the receiver
/// detaches the consumer; producers then shed this subscription's deltas
/// without blocking.
#[derive(Debug)]
pub struct DeliveryReceiver {
    channel: Arc<Mutex<QueueState>>,
}

impl DeliveryReceiver {
    /// Pops the oldest queued delivery, if any.
    pub fn try_recv(&self) -> Option<Delivery> {
        let mut state = self.channel.lock().unwrap_or_else(|p| p.into_inner());
        state.items.pop_front()
    }

    /// Takes every queued delivery at once, oldest first.
    pub fn drain(&self) -> Vec<Delivery> {
        let mut state = self.channel.lock().unwrap_or_else(|p| p.into_inner());
        state.items.drain(..).collect()
    }

    /// Number of deliveries currently queued.
    pub fn len(&self) -> usize {
        self.channel
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .items
            .len()
    }

    /// Returns `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deltas shed from the full queue since attach.
    pub fn dropped(&self) -> u64 {
        self.channel
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .dropped
    }

    /// Returns `true` once the producer side is gone (the subscription was
    /// removed or the queue detached) — no further deliveries will arrive.
    pub fn is_closed(&self) -> bool {
        self.channel
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .closed
    }
}

impl Drop for DeliveryReceiver {
    fn drop(&mut self) {
        let mut state = self.channel.lock().unwrap_or_else(|p| p.into_inner());
        state.receiver_alive = false;
        state.items.clear();
    }
}

/// Creates a connected sender/receiver pair.  `telemetry` (the manager's
/// handles) makes the producer count and trace enqueues/sheds; `None` keeps
/// the queue silent (standalone/unit use).
pub(crate) fn delivery_queue(
    config: DeliveryConfig,
    telemetry: Option<DeliveryTelemetry>,
) -> (DeliverySender, DeliveryReceiver) {
    let channel = Arc::new(Mutex::new(QueueState {
        receiver_alive: true,
        ..QueueState::default()
    }));
    (
        DeliverySender {
            channel: Arc::clone(&channel),
            // A zero capacity (settable through the public field) holds one.
            capacity: config.capacity.max(1),
            telemetry,
        },
        DeliveryReceiver { channel },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscription::{RefreshReason, SubscriptionId};

    fn delta(n: u64) -> ResultDelta {
        ResultDelta {
            subscription: SubscriptionId(n),
            reason: RefreshReason::TopicDisturbed,
            added: Vec::new(),
            removed: Vec::new(),
            score_before: 0.0,
            score_after: n as f64 + 1.0,
        }
    }

    #[test]
    fn fifo_order_and_drain() {
        let (tx, rx) = delivery_queue(DeliveryConfig::default(), None);
        for i in 0..3 {
            tx.send(i + 1, delta(i));
        }
        assert_eq!(rx.len(), 3);
        assert_eq!(rx.try_recv().unwrap().slide, 1);
        let rest = rx.drain();
        assert_eq!(rest.len(), 2);
        assert_eq!(rest[0].slide, 2);
        assert!(rx.is_empty());
        assert_eq!(rx.dropped(), 0);
    }

    #[test]
    fn drop_oldest_sheds_the_head() {
        let (tx, rx) = delivery_queue(DeliveryConfig::default().with_capacity(2), None);
        for i in 0..4 {
            tx.send(i + 1, delta(i));
        }
        assert_eq!(rx.dropped(), 2);
        let items = rx.drain();
        assert_eq!(
            items.iter().map(|d| d.slide).collect::<Vec<_>>(),
            vec![3, 4],
            "the freshest deltas survive"
        );
    }

    #[test]
    fn zero_capacity_holds_one_delta() {
        let (tx, rx) = delivery_queue(DeliveryConfig { capacity: 0 }, None);
        for i in 0..3 {
            tx.send(i + 1, delta(i));
        }
        assert_eq!(rx.dropped(), 2);
        assert_eq!(
            rx.drain().iter().map(|d| d.slide).collect::<Vec<_>>(),
            vec![3]
        );
    }

    #[test]
    fn dropped_receiver_unblocks_and_discards() {
        let (tx, rx) = delivery_queue(DeliveryConfig::default().with_capacity(1), None);
        tx.send(1, delta(0));
        drop(rx);
        // Receiver gone ⇒ the send is shed: not queued and not counted.
        tx.send(2, delta(1));
        assert_eq!(tx.len(), 0, "dropping the receiver clears the queue");
        assert_eq!(tx.channel.lock().unwrap().dropped, 0);
        tx.close();
    }

    #[test]
    fn e2e_histograms_mirror_the_accept_and_shed_counters() {
        let bundle = Arc::new(Telemetry::default());
        for slide in 1..=3 {
            bundle.freshness().stamp(slide, 0);
        }
        let (tx, rx) = delivery_queue(
            DeliveryConfig::default().with_capacity(2),
            Some(DeliveryTelemetry::new(Arc::clone(&bundle))),
        );
        for i in 0..3 {
            tx.send(i + 1, delta(i));
        }
        let registry = bundle.registry();
        // Accept-time recording: e2e count == enqueued, per-outcome twin ==
        // dropped (slide 1 was accepted, then shed by the full queue).
        assert_eq!(registry.counter("delivery.enqueued").get(), 3);
        assert_eq!(registry.histogram("delivery.e2e").count(), 3);
        assert_eq!(registry.counter("delivery.dropped").get(), 1);
        assert_eq!(registry.histogram("delivery.e2e.dropped").count(), 1);
        assert_eq!(tx.len(), 2, "sender sees the queue depth");
        // A slide with no retained stamp contributes no sample but still
        // counts as enqueued.
        rx.try_recv();
        tx.send(99, delta(9));
        assert_eq!(registry.counter("delivery.enqueued").get(), 4);
        assert_eq!(registry.histogram("delivery.e2e").count(), 3);
        drop(rx);
    }

    #[test]
    fn close_is_visible_to_the_receiver() {
        let (tx, rx) = delivery_queue(DeliveryConfig::default(), None);
        assert!(!rx.is_closed());
        tx.close();
        assert!(rx.is_closed());
    }
}
