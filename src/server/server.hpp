// SpecializationServer — the paper's deployment model (§V-D, Fig. 1) as a
// long-running, multi-tenant service: applications execute on the VM while
// the ASIP-SP runs concurrently and delivers bitstreams when ready. Many
// concurrent applications compete for one specializer, one CAD budget and
// one shared bitstream cache; the server arbitrates:
//
//   submit() ──▶ in-flight coalescing map ──▶ bounded admission queue ──▶
//                (signature match: ride         (reject-with-reason when
//                 an existing run as a           full) ──▶ per-tenant
//                 follower, skip the             round-robin scheduler
//                 pipeline entirely)             (priority FIFO in-tenant)
//                                                   │
//                       session coordinators (`max_sessions` cheap threads
//                       that mostly block) run SpecializationPipeline
//                       against the ONE shared BitstreamCache +
//                       EstimateCache; candidate search runs on the
//                       coordinator, the per-candidate CAD fan-out on
//                       the ONE shared WorkStealingPool of `workers`
//                       threads
//
// Request coalescing (the serving stack's first memoization tier, ahead of
// EstimateCache → shared BitstreamCache → journal warm-start): a submission
// whose jit::request_signature matches a run already queued or executing
// registers as a follower of that leader and resolves from the leader's
// SpecializationResult — bit-identical, since equal signatures imply equal
// pipeline output under one config. Deadlines/cancellation stay per-ticket:
// a cancelled or expired follower detaches without touching the leader, and
// a leader that dies (cancelled/expired/failed) promotes its oldest
// surviving follower into a fresh run at that follower's own priority
// instead of failing the cohort. Followers hold no queue slot and no
// round-robin turn, so coalescing never distorts fairness accounting.
//
// Fairness: the scheduler dequeues round-robin across tenants that have
// pending work, so a tenant flooding the queue cannot starve another —
// between any two dequeues of the flooding tenant, every other pending
// tenant gets one. Priorities order requests within a tenant only.
//
// Execution substrate: session concurrency is a *scheduling* property
// (`max_sessions` coordinator threads), CAD width is a *thread-count*
// property (`workers` pool threads) — and the two do not multiply. Each
// session searches serially on its coordinator thread (milliseconds) and
// submits its CAD chains to the one work-stealing pool, so pool threads are
// bounded by `workers` no matter how many tenants or sessions are in
// flight, and an idle worker steals whichever session's CAD is backed up.
//
// Cancellation/deadlines are cooperative: the pipeline polls the request's
// token at stage boundaries only — never inside a cache or journal mutation
// — so a cancelled or deadline-expired request resolves with partial
// progress and can never tear the shared cache or leave the journal
// unreplayable. drain() stops admission, runs every admitted request to a
// terminal state, then syncs (and maybe compacts) the journal.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "adaptive/policy.hpp"
#include "estimation/estimator.hpp"
#include "jit/cache.hpp"
#include "jit/cache_io.hpp"
#include "jit/observer.hpp"
#include "jit/specializer.hpp"
#include "server/observer.hpp"
#include "server/request.hpp"
#include "support/statistics.hpp"
#include "support/work_stealing_pool.hpp"

namespace jitise::server {

struct ServerConfig {
  /// Compute threads in the ONE shared work-stealing pool every session's
  /// CAD tasks run on (0 clamps to 1). This — not the session count —
  /// bounds the server's CAD threads.
  unsigned workers = 2;
  /// Concurrent sessions (pipelines in flight). A session is a cheap
  /// coordinator thread that submits tasks and blocks on their completion;
  /// 0 defaults to `workers`. Raising it admits more requests into the
  /// pool's scheduling mix without adding compute threads.
  unsigned max_sessions = 0;
  /// Bound on admitted-but-not-started requests; a submit beyond it is
  /// rejected with reason (backpressure, never silent queueing).
  std::size_t queue_capacity = 64;
  /// Per-session pipeline configuration (jobs, select, flow, ...). The
  /// server overrides its `cancel` token per request. `specializer.jobs > 1`
  /// opts sessions' CAD fan-out into the shared pool (whose `workers` width
  /// decides the real parallelism); `jobs = 1` runs sessions strictly
  /// serially on their coordinator thread.
  jit::SpecializerConfig specializer;
  /// Shared bitstream cache capacity in bytes (0 = unbounded).
  std::size_t cache_capacity_bytes = 0;
  /// When non-empty, the shared cache persists through a CacheJournal at
  /// this path (replayed on startup, synced on drain and per session).
  std::string cache_journal_file;
  /// Power-loss durability for the journal (CacheJournal::set_fsync).
  bool journal_fsync = false;
  /// Share one per-signature EstimateCache across all sessions, so
  /// identical candidates from different tenants are estimated once.
  bool share_estimates = true;
  /// Request coalescing: a submission whose (module, profile) signature
  /// (jit::request_signature) matches a run already queued or executing
  /// registers as a *follower* on that run's in-flight entry and resolves
  /// from the leader's result instead of entering the pipeline. Followers
  /// hold no admission-queue slot and no round-robin turn. Off runs every
  /// admitted request through the pipeline (differential testing).
  bool coalesce_requests = true;
  /// Extra PipelineObserver installed on every session's pipeline (not
  /// owned; must be internally synchronized and outlive the server). Used
  /// by tests and tracing; null = none.
  jit::PipelineObserver* pipeline_observer = nullptr;
  /// Adaptive re-specialization under phase drift: the server hosts an
  /// adaptive::RespecializationPolicy, clients stream closed profile
  /// windows through observe_window(), and on a confirmed phase change
  /// whose installed benefit has decayed the server evicts the stale
  /// bitstream-cache slots and re-submits through the normal admission
  /// queue with Trigger::Drift. Off: observe_window() is a no-op.
  bool adaptive = false;
  /// Detector/threshold/cost knobs of the drift loop (`adaptive` only).
  adaptive::RespecializationConfig respec;
};

/// Aggregate counters for one tenant, with request-latency percentiles over
/// every terminal (admitted) request.
struct TenantStats {
  std::uint64_t submitted = 0;  // admitted + rejected
  std::uint64_t completed = 0;  // Done
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t rejected = 0;
  /// Submissions registered as coalesced followers (no pipeline run of
  /// their own); they still count toward `submitted` and, on success,
  /// `completed`.
  std::uint64_t coalesced = 0;
  double p50_ms = 0.0, p95_ms = 0.0, p99_ms = 0.0;
  double mean_ms = 0.0;
  /// Completed requests per second over the window since this tenant's
  /// first submission (not total server uptime — a tenant that arrives
  /// late is not diluted by the idle head).
  double throughput_rps = 0.0;
};

struct ServerStats {
  std::map<std::string, TenantStats> tenants;
  std::size_t queue_high_water = 0;
  std::uint64_t admission_rejections = 0;
  std::uint64_t cancellations = 0;  // terminal Cancelled
  std::uint64_t expiries = 0;       // terminal Expired
  /// Shared-pool counters: executed CAD tasks, cross-worker steals, and the
  /// worker-occupancy high-water mark.
  support::ExecutorStats executor;
  // Coalescing tier: followers registered at admission, followers resolved
  // Done from a leader's result, followers promoted into fresh runs after
  // their leader died, and sessions that actually entered the pipeline
  // (dedup rate = coalesced_completed / completed-over-all-tenants).
  std::uint64_t coalesced_submits = 0;
  std::uint64_t coalesced_completed = 0;
  std::uint64_t promotions = 0;
  std::uint64_t pipeline_runs = 0;
  double uptime_s = 0.0;
  // Shared-resource counters.
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::size_t cache_entries = 0;
  /// Entries dropped from the bitstream cache: capacity LRU evictions plus
  /// the drift loop's policy evictions (`drift_evictions` of these).
  std::uint64_t cache_evictions = 0;
  std::uint64_t estimate_hits = 0, estimate_misses = 0;
  /// Adaptive tier (zero when `ServerConfig::adaptive` is off): windows
  /// streamed in, phase changes confirmed, drift re-specializations
  /// submitted, confirmed changes the policy absorbed, and stale cache
  /// slots evicted by the drift loop.
  std::uint64_t windows_observed = 0;
  std::uint64_t phase_changes = 0;
  std::uint64_t drift_respecializations = 0;
  std::uint64_t drift_keeps = 0;
  std::uint64_t drift_evictions = 0;

  [[nodiscard]] double estimate_hit_rate() const noexcept {
    const double total =
        static_cast<double>(estimate_hits + estimate_misses);
    return total > 0.0 ? static_cast<double>(estimate_hits) / total : 0.0;
  }
};

/// What observe_window() did with one window.
struct WindowObservation {
  adaptive::DriftDecision decision;
  /// Set when the decision was Respecialize: the drift request's ticket
  /// (admitted through the normal queue; may still be rejected/expired —
  /// inspect it like any client ticket).
  std::optional<Ticket> ticket;
};

class SpecializationServer : private support::ExecutorObserver {
 public:
  explicit SpecializationServer(ServerConfig config);
  /// Stops notifying observers, then drains (best effort — exceptions
  /// swallowed; the journal is still synced and compacted) and joins all
  /// workers.
  ~SpecializationServer();

  SpecializationServer(const SpecializationServer&) = delete;
  SpecializationServer& operator=(const SpecializationServer&) = delete;

  /// Admission: returns a live ticket, or — when the queue is at capacity
  /// or the server is draining — one already terminal in state Rejected
  /// with the reason filled in. Never blocks on queue space. With
  /// `coalesce_requests`, a signature match against an in-flight run
  /// registers the ticket as a follower (exempt from queue capacity — it
  /// holds no slot); before rejecting for capacity, requests already
  /// cancelled/expired while queued are swept out of the queue, so dead
  /// sessions never crowd out live traffic.
  Ticket submit(SpecializationRequest request);

  /// Adaptive mode: streams one closed profile window for (tenant, module)
  /// into the drift loop. The policy detects phase changes, prices the
  /// installed instruction set under the new window, and on a Respecialize
  /// decision the server evicts the stale cache slots and submits a
  /// Trigger::Drift request (with the window as its profile) through the
  /// normal admission path — coalescing, deadlines and fairness all apply,
  /// and other tenants keep being served. With `adaptive` off this returns
  /// a default (None) observation and touches nothing.
  WindowObservation observe_window(
      const std::string& tenant, std::shared_ptr<const ir::Module> module,
      std::shared_ptr<const vm::Profile> window, int priority = 0,
      double deadline_ms = 0.0);

  /// Registers a server observer (not owned). Register before the first
  /// submit — the list is not synchronized. Lifetime contract: events fire
  /// from registration until the destructor begins; the destructor stops
  /// notifying before its implicit drain, so that drain never calls into an
  /// observer (no `on_drained`, no events of requests it finishes). An
  /// observer must therefore outlive only the activity it watches: one
  /// destroyed before the server must see an explicit `drain()` return
  /// first (which still emits `on_drained`), or every request it could hear
  /// about already finished.
  void add_observer(ServerObserver* observer) { observers_.add(observer); }

  /// Stops admission, runs every already-admitted request to a terminal
  /// state (cancelled requests resolve fast at their next check point),
  /// then syncs — and maybe compacts — the shared journal. Idempotent;
  /// throws on journal I/O failure (the queue is still fully drained).
  void drain();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] jit::BitstreamCache& cache() noexcept { return cache_; }
  [[nodiscard]] const estimation::EstimateCache& estimates() const noexcept {
    return estimates_;
  }

 private:
  struct Session {
    std::uint64_t id = 0;
    SpecializationRequest request;
    std::shared_ptr<detail::TicketState> ticket;
    std::uint64_t signature = 0;  // jit::request_signature of the request
  };

  /// One signature's in-flight cohort: the leading run (queued or
  /// executing) plus the followers waiting to resolve from its result, in
  /// admission order. Guarded by mu_.
  struct InFlight {
    std::uint64_t leader_id = 0;
    std::deque<Session> followers;
  };

  class SessionPipelineObserver;

  void worker_loop();
  /// Round-robin pop across tenants with pending work; priority FIFO within
  /// the tenant. Requests whose token already fired (cancelled/expired
  /// while queued) are skipped into `dead` without consuming the tenant's
  /// turn or a session; the caller resolves them outside the lock. Returns
  /// nullopt when every pending request was dead. Caller holds mu_.
  std::optional<Session> pop_next_locked(std::vector<Session>& dead);
  /// Priority insert into the tenant's pending deque. Caller holds mu_.
  void enqueue_locked(Session session);
  /// Removes every pending request whose token has fired into `dead` (the
  /// caller resolves them outside the lock) so dead sessions stop counting
  /// against queue capacity. Caller holds mu_.
  void sweep_dead_pending_locked(std::vector<Session>& dead);
  [[nodiscard]] std::size_t pending_locked() const noexcept {
    return pending_count_;
  }
  void run_session(Session& session);
  /// Resolves a session's ticket, then settles its cohort: a Done leader
  /// resolves every follower from its result; a dead leader promotes the
  /// oldest surviving follower into a fresh run (re-enqueued at its own
  /// priority) and resolves only the followers whose tokens already fired.
  /// Caller must not hold mu_.
  void finish_session(Session& session, RequestState state, std::string reason,
                      std::optional<jit::SpecializationResult> result,
                      const RequestProgress& progress);
  void resolve(const std::shared_ptr<detail::TicketState>& ticket,
               RequestState state, std::string reason,
               std::optional<jit::SpecializationResult> result,
               const RequestProgress& progress);
  /// ExecutorObserver tap on the shared pool: forwards stolen-task events
  /// to the server observers (fires from pool worker threads).
  void on_task_executed(bool stolen) override;

  ServerConfig config_;
  jit::BitstreamCache cache_;
  estimation::EstimateCache estimates_;
  /// The drift loop's brain (engaged by `config_.adaptive`); shares the
  /// server's EstimateCache so window pricing and pipeline runs memoize
  /// into one signature space.
  std::optional<adaptive::RespecializationPolicy> policy_;
  std::optional<jit::CacheJournal> journal_;
  /// The one CAD substrate all sessions share.
  support::WorkStealingPool pool_;
  ServerObserverList observers_;

  mutable std::mutex mu_;  // scheduler state below
  std::condition_variable work_cv_;   // workers wait for runnable work
  std::condition_variable idle_cv_;   // drain waits for quiescence
  std::map<std::string, std::deque<Session>> pending_;  // keyed by tenant
  /// In-flight cohorts keyed by request signature. An entry exists exactly
  /// while its leader is queued or executing; followers attach here instead
  /// of entering pending_.
  std::map<std::uint64_t, InFlight> inflight_;
  std::size_t pending_count_ = 0;
  std::string rr_cursor_;  // last tenant dequeued (round-robin position)
  unsigned running_ = 0;
  /// Submitting threads settling swept-out dead sessions (whose cohort may
  /// promote a follower back into the queue); drain() waits for zero so it
  /// never observes a false idle instant mid-settlement.
  unsigned settling_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  std::uint64_t next_id_ = 0;

  mutable std::mutex stats_mu_;  // accounting below
  std::map<std::string, TenantStats> tenant_stats_;
  std::map<std::string, support::LatencySamples> tenant_latency_;
  std::size_t queue_high_water_ = 0;
  std::uint64_t rejections_ = 0;
  std::uint64_t cancellations_ = 0;
  std::uint64_t expiries_ = 0;
  std::uint64_t coalesced_submits_ = 0;
  std::uint64_t coalesced_completed_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t windows_observed_ = 0;
  std::uint64_t phase_changes_ = 0;
  std::uint64_t drift_respecializations_ = 0;
  std::uint64_t drift_keeps_ = 0;
  std::uint64_t drift_evictions_ = 0;
  /// Per-tenant steady timestamp of the first submit — the start of the
  /// throughput window stats() reports.
  std::map<std::string, std::chrono::steady_clock::time_point> tenant_first_;
  std::atomic<std::uint64_t> pipeline_runs_{0};
  std::chrono::steady_clock::time_point started_at_;

  std::vector<std::thread> threads_;
};

}  // namespace jitise::server
