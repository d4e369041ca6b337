//! The bounded worker pool behind a running planner service.
//!
//! [`PlannerService::run`] spawns `workers` scoped threads draining one
//! job queue into a shared [`WarmCache`] and hands the closure a
//! [`ServiceClient`]. Every request is one [`Request`] job answered by one
//! [`Response`]; [`ServiceClient::submit`] returns immediately with a
//! [`Pending`] handle the caller waits on or cancels.
//!
//! Each request carries one stop flag, a [`SearchInterrupt`]: cancelling
//! sets it. A request stopped before a worker picks it up is never planned;
//! one stopped mid-flight still completes its planning work and answers
//! [`Error::Cancelled`]. A request whose workload plans with
//! [`SearchStrategy::Anytime`] never answers `cancelled`: its search polls
//! that very flag between beam rounds, and an expired pickup deadline sets
//! it, so the answer is the best plan found so far plus its
//! `optimality_gap`.
//!
//! The pool is unpoisonable by construction: every job runs under
//! [`catch_unwind`], a cancelled or deadline-expired ticket short-circuits
//! to [`Error::Cancelled`] *before* any planning happens, and a worker that
//! answered one request — however it ended — is immediately back on the
//! queue for the next.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use primepar_search::{SearchInterrupt, SearchStrategy};

use crate::cache::{ServiceCacheStats, WarmCache};
use crate::observe::{RequestTrace, ServiceObserver};
use crate::{Error, PlanRequest, PlanResponse, Request, Response};

/// Pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceOptions {
    /// Worker threads draining the request queue (minimum 1).
    pub workers: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions { workers: 2 }
    }
}

/// Delivery constraints travelling with a job: its stop flag and pickup
/// deadline.
#[derive(Debug, Clone)]
struct Ticket {
    cancel: SearchInterrupt,
    deadline: Option<Instant>,
}

impl Ticket {
    fn for_deadline(cancel: SearchInterrupt, deadline_ms: Option<u64>) -> Ticket {
        Ticket {
            cancel,
            deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        }
    }
}

/// A job's outcome.
type Verdict = Result<Response, Error>;

struct Job {
    req: Request,
    ticket: Ticket,
    trace: Option<Arc<RequestTrace>>,
    /// Where the verdict goes; called exactly once per job.
    reply: Box<dyn FnOnce(Verdict) + Send>,
}

/// Handle to one in-flight request.
#[derive(Debug)]
pub struct Pending {
    rx: Receiver<Verdict>,
    cancel: SearchInterrupt,
}

impl Pending {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// The worker's verdict, or [`Error::Internal`] if the pool went away
    /// without answering.
    pub fn wait(self) -> Result<Response, Error> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(Error::internal("service dropped the reply channel")))
    }

    /// Requests cancellation of this request. Idempotent.
    pub fn cancel(&self) {
        self.cancel.interrupt();
    }

    /// A clone of this request's stop flag: setting it through any clone
    /// cancels the request.
    pub fn token(&self) -> SearchInterrupt {
        self.cancel.clone()
    }
}

/// Submission handle the service lends to its driver closure.
///
/// Cheap to clone (it is a queue sender plus a cache reference); all clones
/// must be dropped for the service's workers to shut down, so do not smuggle
/// one out of the [`PlannerService::run`] closure.
#[derive(Debug)]
pub struct ServiceClient<'c> {
    tx: Sender<Job>,
    cache: &'c WarmCache,
}

impl Clone for ServiceClient<'_> {
    fn clone(&self) -> Self {
        ServiceClient {
            tx: self.tx.clone(),
            cache: self.cache,
        }
    }
}

impl ServiceClient<'_> {
    /// Enqueues a request; returns immediately.
    pub fn submit(&self, req: Request) -> Pending {
        let (tx, rx) = mpsc::channel();
        let cancel = self.dispatch(req, None, move |verdict| drop(tx.send(verdict)));
        Pending { rx, cancel }
    }

    /// Enqueues a plan request; returns immediately.
    pub fn submit_plan(&self, req: PlanRequest) -> Pending {
        self.submit(Request::Plan(req))
    }

    /// Plans synchronously on the pool.
    ///
    /// # Errors
    ///
    /// The worker's verdict for this request.
    pub fn plan(&self, req: PlanRequest) -> Result<PlanResponse, Error> {
        match self.submit_plan(req).wait()? {
            Response::Plan(resp) => Ok(*resp),
            _ => unreachable!("a plan request is answered by a plan response"),
        }
    }

    /// Counters of the cache this service plans against.
    pub fn stats(&self) -> ServiceCacheStats {
        self.cache.stats()
    }

    /// Enqueues `req`, to be answered exactly once through `reply`; returns
    /// the request's stop flag. The worker that picks the job up
    /// records its execution spans into `trace`, when given.
    pub(crate) fn dispatch(
        &self,
        req: Request,
        trace: Option<Arc<RequestTrace>>,
        reply: impl FnOnce(Verdict) + Send + 'static,
    ) -> SearchInterrupt {
        let cancel = SearchInterrupt::new();
        let job = Job {
            ticket: Ticket::for_deadline(cancel.clone(), req.deadline_ms()),
            req,
            trace,
            reply: Box::new(reply),
        };
        // A send fails only once every worker is gone; the job comes back,
        // so it still answers through its own reply.
        if let Err(failed) = self.tx.send(job) {
            (failed.0.reply)(Err(Error::internal("service workers are gone")));
        }
        cancel
    }
}

/// A scoped worker pool over a [`WarmCache`].
pub struct PlannerService;

impl PlannerService {
    /// Runs `f` against a fresh pool with its own private cache.
    pub fn run<R>(opts: ServiceOptions, f: impl FnOnce(&ServiceClient<'_>) -> R) -> R {
        let cache = WarmCache::new();
        PlannerService::run_with_cache(opts, &cache, f)
    }

    /// Runs `f` against a pool planning into `cache` — the shape long-lived
    /// hosts use so warm state survives across connections.
    pub fn run_with_cache<R>(
        opts: ServiceOptions,
        cache: &WarmCache,
        f: impl FnOnce(&ServiceClient<'_>) -> R,
    ) -> R {
        PlannerService::run_observed(opts, cache, None, f)
    }

    /// [`PlannerService::run_with_cache`] reporting into a
    /// [`ServiceObserver`]: each worker gets a stable lane index, announces
    /// pickups/completions, records execution spans into job traces, and
    /// dumps the flight recorder should a job panic.
    pub(crate) fn run_observed<R>(
        opts: ServiceOptions,
        cache: &WarmCache,
        observer: Option<&ServiceObserver>,
        f: impl FnOnce(&ServiceClient<'_>) -> R,
    ) -> R {
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Mutex::new(rx);
        let rx = &rx;
        thread::scope(|scope| {
            for idx in 0..opts.workers.max(1) {
                scope.spawn(move || worker_loop(idx, rx, cache, observer));
            }
            let client = ServiceClient { tx, cache };
            // `f` borrows the client; dropping it afterwards closes the
            // queue, so the workers drain what is left and join at scope
            // exit.
            f(&client)
        })
    }
}

fn worker_loop(
    idx: usize,
    rx: &Mutex<Receiver<Job>>,
    cache: &WarmCache,
    observer: Option<&ServiceObserver>,
) {
    loop {
        // Lock only around the recv (a statement, so the guard drops before
        // the job runs) so a worker deep in a plan never blocks its
        // siblings' pickups.
        let Ok(job) = rx.lock().expect("job queue lock").recv() else {
            return; // queue closed: service is shutting down
        };
        let picked = Instant::now();
        if let Some(obs) = observer {
            obs.job_started(idx);
        }
        let panic_dump = observer.map(|obs| (obs, cache));
        let (req, ticket, trace) = (&job.req, &job.ticket, job.trace.as_deref());
        if let Some(trace) = trace {
            trace.begin_exec(idx);
        }
        let verdict = if matches!(req.strategy(), SearchStrategy::Anytime { .. }) {
            guarded_anytime(ticket, panic_dump, || {
                cache.execute(req, trace, Some(&ticket.cancel))
            })
        } else {
            guarded(ticket, panic_dump, || cache.execute(req, trace, None))
        };
        if let Some(trace) = trace {
            trace.end_exec();
        }
        (job.reply)(verdict);
        if let Some(obs) = observer {
            obs.job_finished(idx, picked.elapsed().as_micros() as u64);
        }
    }
}

/// Runs one job under the pool's survival guarantees. `panic_dump` is the
/// observability hook of the panic path: the flight recorder is dumped
/// *before* the panic verdict goes back, so the artifact survives even if
/// the client hangs up on the error.
fn guarded<T>(
    ticket: &Ticket,
    panic_dump: Option<(&ServiceObserver, &WarmCache)>,
    job: impl FnOnce() -> Result<T, Error>,
) -> Result<T, Error> {
    if ticket.cancel.is_interrupted() {
        return Err(Error::cancelled("request cancelled before pickup"));
    }
    if ticket
        .deadline
        .is_some_and(|deadline| Instant::now() >= deadline)
    {
        return Err(Error::cancelled("deadline expired before pickup"));
    }
    match run_caught(panic_dump, job) {
        Ok(_) if ticket.cancel.is_interrupted() => {
            Err(Error::cancelled("request cancelled while in flight"))
        }
        other => other,
    }
}

/// [`guarded`] for jobs whose workload plans with anytime, which never
/// answer `cancelled`: delivery pressure — a cancel, an already-expired
/// pickup deadline — sets the job's stop flag, which the search polls, so
/// it still runs at least one width-1 round and answers with its
/// best-so-far plan and gap.
fn guarded_anytime<T>(
    ticket: &Ticket,
    panic_dump: Option<(&ServiceObserver, &WarmCache)>,
    job: impl FnOnce() -> Result<T, Error>,
) -> Result<T, Error> {
    if ticket
        .deadline
        .is_some_and(|deadline| Instant::now() >= deadline)
    {
        ticket.cancel.interrupt();
    }
    run_caught(panic_dump, job)
}

/// The pool's panic fence: runs `job` under `catch_unwind`, dumping the
/// flight recorder before the panic verdict goes back.
fn run_caught<T>(
    panic_dump: Option<(&ServiceObserver, &WarmCache)>,
    job: impl FnOnce() -> Result<T, Error>,
) -> Result<T, Error> {
    match catch_unwind(AssertUnwindSafe(job)) {
        Ok(result) => result,
        Err(payload) => {
            if let Some((obs, cache)) = panic_dump {
                // Best effort: the panic verdict must reach the client even
                // when the dump cannot be written.
                let _ = obs.dump_stats(cache, "panic");
            }
            Err(Error::internal(format!(
                "worker panicked: {}",
                panic_message(payload.as_ref())
            )))
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReplanRequest;

    fn tiny(id: &str) -> PlanRequest {
        PlanRequest::builder("opt-6.7b")
            .id(id)
            .devices(4)
            .batch(8)
            .seq(512)
            .layers(Some(2))
            .build()
    }

    #[test]
    fn pool_answers_and_shares_the_cache() {
        let (a, b, stats) = PlannerService::run(ServiceOptions::default(), |client| {
            let a = client.plan(tiny("a")).expect("plans");
            let b = client.plan(tiny("b")).expect("plans");
            (a, b, client.stats())
        });
        assert_eq!(a.plan_text, b.plan_text);
        assert!(b.cache.plan_cache_hit);
        assert_eq!((stats.plan_hits, stats.plan_misses), (1, 1));
    }

    #[test]
    fn expired_deadline_cancels_without_poisoning_the_pool() {
        PlannerService::run(ServiceOptions { workers: 1 }, |client| {
            let doomed = client.plan(PlanRequest {
                deadline_ms: Some(0),
                ..tiny("doomed")
            });
            assert!(matches!(doomed, Err(Error::Cancelled(_))), "{doomed:?}");
            // The same (sole) worker still serves the next request.
            let after = client.plan(tiny("after")).expect("pool survived");
            assert!(!after.cache.plan_cache_hit, "doomed request never planned");
        });
    }

    #[test]
    fn explicit_cancel_skips_queued_work() {
        PlannerService::run(ServiceOptions { workers: 1 }, |client| {
            // Occupy the only worker, then cancel the request queued behind.
            let busy = client.submit_plan(tiny("busy"));
            let queued = client.submit_plan(tiny("queued"));
            queued.cancel();
            assert!(queued.token().is_interrupted());
            assert!(busy.wait().is_ok());
            let verdict = queued.wait();
            assert!(matches!(verdict, Err(Error::Cancelled(_))), "{verdict:?}");
            // Nothing poisoned: a fresh request still plans.
            assert!(client.plan(tiny("fresh")).is_ok());
        });
    }

    #[test]
    fn replan_requests_flow_through_the_pool() {
        PlannerService::run(ServiceOptions::default(), |client| {
            let req = ReplanRequest::of(tiny("r")).with_scenario("harsh", 5);
            let verdict = client.submit(Request::Replan(req)).wait();
            let Ok(Response::Replan(resp)) = verdict else {
                panic!("expected a replan response, got {verdict:?}");
            };
            assert_eq!(resp.id, "r");
            let stats = client.stats();
            assert_eq!(
                stats.replan_stay + stats.replan_patch + stats.replan_full,
                1,
                "{stats:?}"
            );
        });
    }

    #[test]
    fn guarded_maps_panics_to_internal() {
        let ticket = Ticket::for_deadline(SearchInterrupt::new(), None);
        let verdict: Result<(), Error> = guarded(&ticket, None, || panic!("kaboom"));
        match verdict {
            Err(Error::Internal(msg)) => assert!(msg.contains("kaboom"), "{msg}"),
            other => panic!("expected internal error, got {other:?}"),
        }
        // The post-run cancel check wins over a successful result.
        let ticket = Ticket::for_deadline(SearchInterrupt::new(), None);
        ticket.cancel.interrupt();
        let verdict: Result<(), Error> = guarded(&ticket, None, || Ok(()));
        assert!(matches!(verdict, Err(Error::Cancelled(_))));
    }
}
