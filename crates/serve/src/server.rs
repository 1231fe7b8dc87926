//! The serving core: admission control, batch workers, deadlines,
//! degradation, and request-scoped panic containment.

use crate::queue::{BoundedQueue, PushError};
use crate::stats::{Counters, ServeStats};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use znn_core::DenseNet;
use znn_fault::{FaultKind, FaultPlan};
use znn_tensor::{Image, Vec3};

/// Why a request was refused or abandoned. Every rejection is typed:
/// the client always learns *which* robustness layer fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// Admission control: the queue depth reached the watermark. Try
    /// again later — accepting the request would have collapsed p99
    /// for everyone already queued.
    Overloaded {
        /// Queue depth observed at admission.
        queue_depth: usize,
        /// The configured admission watermark.
        watermark: usize,
    },
    /// The request's deadline expired; evaluation was cancelled at a
    /// node-step boundary (one graph node over the whole volume) and
    /// every pooled lease was returned. The counts are node steps.
    DeadlineExceeded {
        /// Node steps completed before the deadline fired.
        blocks_done: usize,
        /// Total node steps the volume needed.
        blocks_total: usize,
    },
    /// The input volume is smaller than the network's field of view.
    Invalid {
        /// The offending input shape.
        shape: Vec3,
        /// The minimum (field-of-view) shape.
        fov: Vec3,
    },
    /// A buffer lease was refused on the request path (injected via
    /// [`znn_fault::FaultKind::RejectLease`]); the request was shed
    /// gracefully instead of unwinding.
    LeaseRefused,
    /// The request panicked while being evaluated. The panic was
    /// contained to this response; the server keeps serving.
    Panicked {
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The server is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded {
                queue_depth,
                watermark,
            } => write!(f, "overloaded: queue depth {queue_depth} >= watermark {watermark}"),
            Rejected::DeadlineExceeded {
                blocks_done,
                blocks_total,
            } => write!(f, "deadline exceeded after {blocks_done}/{blocks_total} node steps"),
            Rejected::Invalid { shape, fov } => {
                write!(f, "invalid request: input {shape} smaller than field of view {fov}")
            }
            Rejected::LeaseRefused => write!(f, "buffer lease refused"),
            Rejected::Panicked { message } => write!(f, "request panicked: {message}"),
            Rejected::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Server configuration. The defaults are sized for tests; a real
/// deployment tunes capacity and watermark to its latency budget.
#[derive(Clone)]
pub struct ServeConfig {
    /// Number of batch worker threads. `0` spawns none — requests are
    /// then driven deterministically with [`Server::run_pending`]
    /// (robustness tests use this to pin exact orderings).
    pub workers: usize,
    /// Hard bound on queued requests (memory is bounded by
    /// `queue_capacity × max request bytes`).
    pub queue_capacity: usize,
    /// Admission watermark: a submit observing `depth >= watermark` is
    /// refused with [`Rejected::Overloaded`]. `0` means "use
    /// `queue_capacity`".
    pub admission_watermark: usize,
    /// Requests a worker claims per batch (amortizes queue traffic;
    /// batched requests share the warm kernel-spectrum cache).
    pub max_batch: usize,
    /// Unused: each request is evaluated once over its whole volume,
    /// with a deadline check before every node step. The field stays
    /// only so existing callers keep compiling.
    pub block: Vec3,
    /// Degradation ladder: when the queue depth at batch-assembly time
    /// reaches this value, workers halve their batch size (faster
    /// turnaround per claimed batch) *before* any load is shed. `None`
    /// disables degradation.
    pub degrade_watermark: Option<usize>,
    /// Deterministic fault injection on the request path, keyed by
    /// request id ([`FaultKind::SlowTask`], [`FaultKind::TaskPanic`],
    /// [`FaultKind::RejectLease`]).
    pub faults: Option<Arc<FaultPlan>>,
    /// Stall injected into a request hit by
    /// [`FaultKind::SlowTask`] (applied once, after its first node
    /// step).
    pub slow_task: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 8,
            admission_watermark: 0,
            max_batch: 4,
            block: Vec3::cube(16),
            degrade_watermark: None,
            faults: None,
            slow_task: Duration::from_millis(20),
        }
    }
}

/// One-shot response slot shared between a worker and the waiting
/// client.
struct TicketInner {
    slot: Mutex<Option<(Result<Image, Rejected>, Instant)>>,
    ready: Condvar,
}

impl TicketInner {
    fn fulfill(&self, result: Result<Image, Rejected>) {
        *self.slot.lock() = Some((result, Instant::now()));
        self.ready.notify_all();
    }
}

/// A claim on an admitted request's eventual response.
pub struct Ticket {
    inner: Arc<TicketInner>,
    /// Server-assigned request id (also the fault-injection tick).
    pub id: u64,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("id", &self.id)
            .field("ready", &self.is_ready())
            .finish()
    }
}


impl Ticket {
    /// Blocks until the request completes, is rejected, or panics.
    pub fn wait(self) -> Result<Image, Rejected> {
        self.wait_timed().0
    }

    /// Like [`Ticket::wait`], but also returns the instant the worker
    /// produced the response — benches compute service latency from it
    /// without charging the client's own collection lag.
    pub fn wait_timed(self) -> (Result<Image, Rejected>, Instant) {
        let mut slot = self.inner.slot.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            self.inner.ready.wait(&mut slot);
        }
    }

    /// Non-blocking probe: `true` once a response is available.
    pub(crate) fn is_ready(&self) -> bool {
        self.inner.slot.lock().is_some()
    }
}

/// A queued request.
struct Job {
    id: u64,
    image: Image,
    deadline: Option<Instant>,
    ticket: Arc<TicketInner>,
}

struct Shared {
    net: Arc<DenseNet>,
    cfg: ServeConfig,
    watermark: usize,
    queue: BoundedQueue<Job>,
    counters: Counters,
    next_id: AtomicU64,
}

/// The overload-safe inference server.
///
/// A fixed set of worker threads consumes a bounded request queue in
/// batches and evaluates each request through one shared [`DenseNet`]
/// (whose memoized kernel-spectrum cache is read-only after
/// [`DenseNet::warmup`], so workers never contend on it). The four
/// robustness layers, outermost first:
///
/// 1. **admission control** — [`Server::submit`] polls the queue's
///    lock-free depth gauge and sheds with [`Rejected::Overloaded`]
///    at the watermark;
/// 2. **graceful degradation** — past `degrade_watermark`, workers
///    halve their batch size before anything is shed;
/// 3. **deadlines** — checked cooperatively between node steps;
///    expiry cancels mid-volume and returns every pooled lease;
/// 4. **panic containment** — each request is evaluated under
///    `catch_unwind`; a panic poisons only that response.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts a server over `net` (which must be single-input,
    /// single-output and shift-invariant — see
    /// [`DenseNet::forward_blocked`]). Warm the net first so the
    /// spectrum cache is read-only while workers share it.
    pub fn start(net: Arc<DenseNet>, cfg: ServeConfig) -> Server {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        let watermark = if cfg.admission_watermark == 0 {
            cfg.queue_capacity
        } else {
            cfg.admission_watermark.min(cfg.queue_capacity)
        };
        let queue = BoundedQueue::new(cfg.queue_capacity);
        let shared = Arc::new(Shared {
            net,
            watermark,
            queue,
            counters: Counters::default(),
            next_id: AtomicU64::new(0),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("znn-serve-{i}"))
                    .spawn(move || Self::worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// The effective admission watermark.
    pub fn watermark(&self) -> usize {
        self.shared.watermark
    }

    /// Current request-queue depth (the admission-control signal).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Submits a volume for dense inference with an optional latency
    /// budget. Returns a [`Ticket`] if admitted; rejections are
    /// immediate and typed.
    pub fn submit(&self, image: Image, budget: Option<Duration>) -> Result<Ticket, Rejected> {
        let shared = &self.shared;
        shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed) + 1;

        if shared.net.output_shape_for(image.shape()).is_none() {
            shared.counters.invalid.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Invalid {
                shape: image.shape(),
                fov: shared.net.fov(),
            });
        }
        // fault injection: a refused lease on the request path is shed
        // gracefully (typed), unlike training's LeaseFail which unwinds
        if let Some(faults) = &shared.cfg.faults {
            if faults.take(FaultKind::RejectLease, id) {
                shared.counters.lease_refused.fetch_add(1, Ordering::Relaxed);
                return Err(Rejected::LeaseRefused);
            }
        }
        // admission control: poll the lock-free depth gauge before
        // touching the queue lock
        let depth = shared.queue.depth();
        if depth >= shared.watermark {
            shared.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Overloaded {
                queue_depth: depth,
                watermark: shared.watermark,
            });
        }
        let inner = Arc::new(TicketInner {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        let job = Job {
            id,
            image,
            deadline: budget.map(|b| Instant::now() + b),
            ticket: Arc::clone(&inner),
        };
        match shared.queue.try_push(job) {
            Ok(()) => {
                shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket { inner, id })
            }
            Err(PushError::Full(_)) => {
                // raced past the gauge into a full queue: still a
                // typed shed, never a block
                shared.counters.shed_overload.fetch_add(1, Ordering::Relaxed);
                Err(Rejected::Overloaded {
                    queue_depth: shared.queue.capacity(),
                    watermark: shared.watermark,
                })
            }
            Err(PushError::Closed(_)) => {
                shared.counters.shutdown_rejected.fetch_add(1, Ordering::Relaxed);
                Err(Rejected::ShuttingDown)
            }
        }
    }

    /// A snapshot of the serving counters plus the live queue depth.
    pub fn stats(&self) -> ServeStats {
        self.shared
            .counters
            .snapshot(self.shared.queue.depth(), self.shared.watermark)
    }

    /// A human-readable stats report in the style of the trainer's
    /// `--pool-report`, including the pooled-allocator state the
    /// server leases from.
    pub fn report(&self) -> String {
        let mut out = self.stats().report();
        if let Some(pools) = self.shared.net.pools() {
            let s = pools.stats();
            out.push_str(&format!(
                "pool: resident {} B, in use {} B, hit rate {:.3}\n",
                pools.resident_bytes(),
                s.bytes_in_use(),
                pools.hit_rate(),
            ));
        }
        out
    }

    /// Deterministically drains the queue on the calling thread using
    /// the same batch-assembly path the workers run. Returns the
    /// number of requests processed. Intended for `workers: 0` servers
    /// in tests and single-threaded drivers.
    pub fn run_pending(&self) -> usize {
        let mut processed = 0;
        while let Some(first) = self.shared.queue.try_pop() {
            processed += Self::run_batch(&self.shared, first);
        }
        processed
    }

    /// Closes the queue, joins the workers, fails whatever is still
    /// queued with [`Rejected::ShuttingDown`], and returns the final
    /// stats.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for job in self.shared.queue.drain() {
            self.shared
                .counters
                .shutdown_rejected
                .fetch_add(1, Ordering::Relaxed);
            job.ticket.fulfill(Err(Rejected::ShuttingDown));
        }
    }

    fn worker_loop(shared: &Arc<Shared>) {
        while let Some(first) = shared.queue.pop() {
            Self::run_batch(shared, first);
        }
    }

    /// Assembles one batch starting from `first` and processes it.
    /// Degradation is decided per batch from the live queue depth.
    fn run_batch(shared: &Arc<Shared>, first: Job) -> usize {
        let degraded = shared
            .cfg
            .degrade_watermark
            .is_some_and(|w| shared.queue.depth() >= w);
        let batch_cap = if degraded {
            shared.counters.degraded_batches.fetch_add(1, Ordering::Relaxed);
            (shared.cfg.max_batch / 2).max(1)
        } else {
            shared.cfg.max_batch
        };
        let mut batch = vec![first];
        while batch.len() < batch_cap {
            match shared.queue.try_pop() {
                Some(job) => batch.push(job),
                None => break,
            }
        }
        let n = batch.len();
        for job in batch {
            Self::process(shared, job);
        }
        n
    }

    /// Evaluates one request with deadline checkpoints and panic
    /// containment. Every pooled lease taken for the request is
    /// scoped inside this frame, so both the cancellation and the
    /// unwinding paths return all bytes by RAII.
    fn process(shared: &Arc<Shared>, job: Job) {
        let slow = shared.cfg.faults.as_ref().and_then(|f| {
            f.take(FaultKind::SlowTask, job.id)
                .then_some(shared.cfg.slow_task)
        });
        let panic_armed = shared
            .cfg
            .faults
            .as_ref()
            .is_some_and(|f| f.take(FaultKind::TaskPanic, job.id));
        let net = Arc::clone(&shared.net);
        let deadline = job.deadline;
        let image = &job.image;
        let result = catch_unwind(AssertUnwindSafe(|| {
            if panic_armed {
                panic!("fault-injection: request {} panicked mid-batch", job.id);
            }
            let mut stalled = false;
            net.forward_blocked(image, shared.cfg.block, &mut |ev| {
                // injected stall lands after the first node step so an
                // expiring deadline is observed mid-volume
                if let Some(d) = slow {
                    if ev.index >= 1 && !stalled {
                        stalled = true;
                        std::thread::sleep(d);
                    }
                }
                match deadline {
                    Some(t) if Instant::now() >= t => std::ops::ControlFlow::Break(()),
                    _ => std::ops::ControlFlow::Continue(()),
                }
            })
        }));
        let response = match result {
            Ok(Ok(out)) => {
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                Ok(out)
            }
            Ok(Err(c)) => {
                shared.counters.deadline_missed.fetch_add(1, Ordering::Relaxed);
                Err(Rejected::DeadlineExceeded {
                    blocks_done: c.blocks_done,
                    blocks_total: c.blocks_total,
                })
            }
            Err(payload) => {
                shared.counters.panicked.fetch_add(1, Ordering::Relaxed);
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(Rejected::Panicked { message })
            }
        };
        job.ticket.fulfill(response);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}
