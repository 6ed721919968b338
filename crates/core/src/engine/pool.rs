//! The pool layer: the scoped worker pool and the streaming job channel.
//!
//! Workers claim items from a shared atomic cursor (or a [`JobSource`]),
//! each carrying its own state (the engine's reusable SMT session; nothing
//! for the plain map). Ordering of *results* is by item index regardless
//! of which worker ran what, which is how every batch stays bit-identical
//! across thread counts. Nothing in this layer knows what a verification
//! stage is — the [stage](super::stage) layer is plugged in by
//! [`VerificationEngine`](super::VerificationEngine).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Maps `f` over `items` on a scoped worker pool, preserving order.
///
/// The engine's work-queue pattern as a standalone helper, used by drivers
/// whose per-item work is not a verification (e.g. Figure 6's cost-model
/// evaluations).
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let mut pairs = run_workers(resolve_threads(threads, items.len()), || {
        let mut out = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else { break };
            out.push((index, f(item)));
        }
        out
    });
    pairs.sort_unstable_by_key(|(index, _)| *index);
    pairs.into_iter().map(|(_, value)| value).collect()
}

/// Resolves a configured worker count: `0` means one per available CPU, and
/// the result is clamped to `[1, items]` so idle workers are never spawned.
pub(crate) fn resolve_threads(configured: usize, items: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if configured == 0 { hw } else { configured };
    threads.clamp(1, items.max(1))
}

/// The worker pool shared by [`parallel_map`] and every
/// [`VerificationEngine`](super::VerificationEngine) run: runs `work` on
/// `threads` scoped workers (on the calling thread when `threads <= 1`)
/// and concatenates what they return. Each worker claims its own items and
/// tags each result with the item's index, so callers restore job order by
/// sorting, whichever worker produced a result.
///
/// `threads` must already be resolved and clamped by the caller. A
/// worker's panic is re-raised on the calling thread.
pub(crate) fn run_workers<R, W>(threads: usize, work: W) -> Vec<R>
where
    R: Send,
    W: Fn() -> Vec<R> + Sync,
{
    if threads <= 1 {
        return work();
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(&work)).collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

struct ChannelState<T> {
    queue: VecDeque<(usize, T)>,
    producers: usize,
}

struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// The producing half of a bounded streaming job channel (see
/// [`job_channel`]): generator threads [`push`](JobProducer::push) indexed
/// items as they are produced and the bound applies backpressure instead of
/// letting the queue materialize the whole batch.
///
/// Cloning adds a producer; the channel closes when the last producer
/// handle drops (including by panic unwind), after which consumers drain
/// the remaining items and then see end-of-stream.
pub struct JobProducer<T> {
    channel: Arc<Channel<T>>,
}

/// The consuming half of a bounded streaming job channel: the engine's
/// streaming intake. Workers share one `&JobSource` and claim `(index,
/// item)` pairs in arrival order; the index is the item's position in the
/// logical batch, which is how results reassemble in job order no matter
/// which worker ran what.
pub struct JobSource<T> {
    channel: Arc<Channel<T>>,
}

/// Creates a bounded producer/consumer job channel with room for
/// `capacity` in-flight items (clamped to at least 1).
pub fn job_channel<T>(capacity: usize) -> (JobProducer<T>, JobSource<T>) {
    let channel = Arc::new(Channel {
        state: Mutex::new(ChannelState {
            queue: VecDeque::new(),
            producers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity: capacity.max(1),
    });
    (
        JobProducer {
            channel: Arc::clone(&channel),
        },
        JobSource { channel },
    )
}

impl<T> JobProducer<T> {
    /// Enqueues one item under its batch index, blocking while the channel
    /// is at capacity (backpressure). Indices must be unique across the
    /// stream; the consumer side panics on duplicates when reassembling.
    pub fn push(&self, index: usize, item: T) {
        let mut state = self.channel.state.lock().unwrap();
        while state.queue.len() >= self.channel.capacity {
            state = self.channel.not_full.wait(state).unwrap();
        }
        state.queue.push_back((index, item));
        drop(state);
        self.channel.not_empty.notify_one();
    }
}

impl<T> Clone for JobProducer<T> {
    fn clone(&self) -> JobProducer<T> {
        self.channel.state.lock().unwrap().producers += 1;
        JobProducer {
            channel: Arc::clone(&self.channel),
        }
    }
}

impl<T> Drop for JobProducer<T> {
    fn drop(&mut self) {
        let mut state = self.channel.state.lock().unwrap();
        state.producers -= 1;
        let closed = state.producers == 0;
        drop(state);
        if closed {
            // Wake every blocked consumer so it can observe end-of-stream.
            self.channel.not_empty.notify_all();
        }
    }
}

impl<T> JobSource<T> {
    /// Dequeues the next `(index, item)` pair, blocking while the channel
    /// is empty but still open. Returns `None` once the channel is closed
    /// (every producer dropped) *and* drained.
    pub fn next(&self) -> Option<(usize, T)> {
        let mut state = self.channel.state.lock().unwrap();
        loop {
            if let Some(pair) = state.queue.pop_front() {
                drop(state);
                self.channel.not_full.notify_one();
                return Some(pair);
            }
            if state.producers == 0 {
                return None;
            }
            state = self.channel.not_empty.wait(state).unwrap();
        }
    }

    /// The number of items currently queued (a live backlog snapshot; it
    /// may be stale by the time the caller acts on it).
    pub fn backlog(&self) -> usize {
        self.channel.state.lock().unwrap().queue.len()
    }
}

impl<T> std::fmt::Debug for JobProducer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobProducer")
    }
}

impl<T> std::fmt::Debug for JobSource<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JobSource")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(4, &items, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(4, &empty, |&x: &u64| x).is_empty());
    }

    #[test]
    fn job_channel_delivers_everything_across_threads() {
        let (producer, source) = job_channel::<u64>(4);
        let collected = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while let Some(pair) = source.next() {
                        collected.lock().unwrap().push(pair);
                    }
                });
            }
            scope.spawn(move || {
                for index in 0..100usize {
                    producer.push(index, index as u64 * 3);
                }
                // `producer` drops here, closing the channel.
            });
        });
        let mut pairs = collected.into_inner().unwrap();
        pairs.sort();
        assert_eq!(
            pairs,
            (0..100usize).map(|i| (i, i as u64 * 3)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn job_channel_applies_backpressure_at_capacity() {
        let (producer, source) = job_channel::<u8>(2);
        producer.push(0, 10);
        producer.push(1, 11);
        assert_eq!(source.backlog(), 2);
        let third_landed = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                producer.push(2, 12);
                third_landed.store(true, Ordering::SeqCst);
            });
            // The producer must stay blocked while the queue is full.
            std::thread::sleep(std::time::Duration::from_millis(50));
            assert!(!third_landed.load(Ordering::SeqCst));
            assert_eq!(source.next(), Some((0, 10)));
        });
        assert!(third_landed.load(Ordering::SeqCst));
        assert_eq!(source.next(), Some((1, 11)));
        assert_eq!(source.next(), Some((2, 12)));
        drop(producer);
        assert_eq!(source.next(), None);
    }

    #[test]
    fn job_channel_closes_when_last_producer_clone_drops() {
        let (producer, source) = job_channel::<u8>(8);
        let second = producer.clone();
        drop(producer);
        second.push(0, 1);
        drop(second);
        assert_eq!(source.next(), Some((0, 1)));
        assert_eq!(source.next(), None);
    }
}
