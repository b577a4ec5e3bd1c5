// Client-facing request/ticket types of the specialization service.
//
// A client submits a SpecializationRequest (module + profile + tenant id +
// priority + optional deadline) and receives a Ticket — a future-like handle
// it can wait on, poll, or cancel. The server resolves every admitted ticket
// exactly once with a terminal RequestOutcome; rejected submissions come
// back already terminal (state Rejected, with the admission reason).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "ir/module.hpp"
#include "jit/specializer.hpp"
#include "support/cancellation.hpp"
#include "vm/interpreter.hpp"

namespace jitise::server {

/// What caused a request: an ordinary client submission, or the server's
/// own drift loop (adaptive::RespecializationPolicy) re-entering the
/// pipeline after a confirmed phase change. Drift re-specializations are
/// ordinary requests in every other respect — they queue, coalesce, expire
/// and count against fairness like client traffic.
enum class Trigger : std::uint8_t { Client, Drift };

[[nodiscard]] const char* trigger_name(Trigger trigger) noexcept;

/// One unit of service work. Module and profile are shared-ownership so the
/// queue can outlive the submitting scope (many requests typically alias one
/// prebuilt module/profile pair).
struct SpecializationRequest {
  std::string tenant;  // fairness / accounting key; "" folds into "default"
  std::shared_ptr<const ir::Module> module;
  std::shared_ptr<const vm::Profile> profile;
  /// Higher runs first *within* the tenant's queue; fairness across tenants
  /// is round-robin regardless of priority (one tenant's high priorities
  /// never starve another tenant).
  int priority = 0;
  /// Service deadline in milliseconds from submission (covers queue wait and
  /// execution); 0 = none. An expired request stops at the pipeline's next
  /// cancellation point and resolves as Expired with partial progress.
  double deadline_ms = 0.0;
  /// Who originated the request (client traffic vs the drift loop).
  Trigger trigger = Trigger::Client;
};

enum class RequestState : std::uint8_t {
  Queued,     // admitted, waiting for a session slot
  Running,    // a worker session is executing the pipeline
  Done,       // finished; outcome.result holds the SpecializationResult
  Failed,     // the pipeline threw (outcome.reason has the error)
  Cancelled,  // cooperatively cancelled via Ticket::cancel()
  Expired,    // the request's deadline passed before it finished
  Rejected,   // never admitted (queue full / server draining)
};

[[nodiscard]] const char* state_name(RequestState state) noexcept;
[[nodiscard]] constexpr bool is_terminal(RequestState state) noexcept {
  return state != RequestState::Queued && state != RequestState::Running;
}

/// Pipeline progress counters, filled from observer events. For a Done
/// request they describe the whole run; for a cancelled/expired one they are
/// the partial stats of how far it got.
struct RequestProgress {
  std::size_t blocks_searched = 0;
  std::size_t candidates_found = 0;
  std::size_t dispatched = 0;     // CAD chains started
  std::size_t implemented = 0;    // CAD chains that produced a bitstream
  std::size_t cad_failures = 0;   // candidates the tool flow rejected
  bool search_complete = false;   // the search phase ran to the end
};

struct RequestOutcome {
  std::uint64_t id = 0;
  std::string tenant;
  RequestState state = RequestState::Queued;
  std::string reason;  // rejection / cancellation / failure detail
  std::optional<jit::SpecializationResult> result;  // Done only
  RequestProgress progress;
  /// jit::request_signature(module, profile) — the key the server's
  /// in-flight coalescing map dedups on (0 only for rejected-at-admission
  /// requests resolved before hashing).
  std::uint64_t signature = 0;
  /// The request matched an in-flight run with the same signature and rode
  /// along as a follower: it never entered the pipeline, and on success
  /// `result` is a copy of the leader's. For a Done follower `progress`
  /// describes the leader's run that produced the result.
  bool coalesced = false;
  /// Id of the leading request this one coalesced onto (0 = led its own
  /// run). A follower promoted into a fresh run after its leader died
  /// reports coalesced=false / leader_id=0 again.
  std::uint64_t leader_id = 0;
  /// Copied from the request (Trigger::Drift marks the server's own
  /// re-specializations in traces and stats).
  Trigger trigger = Trigger::Client;
  double queue_ms = 0.0;  // admission -> session start (0 if never started)
  double run_ms = 0.0;    // session start -> terminal
  double total_ms = 0.0;  // admission -> terminal (the latency the
                          // percentile table reports)
};

namespace detail {

/// Shared state behind a Ticket; the server resolves it, clients wait on it.
struct TicketState {
  std::mutex mu;
  std::condition_variable cv;
  RequestOutcome outcome;  // guarded by mu until terminal, immutable after
  bool terminal = false;   // guarded by mu
  support::CancellationSource cancel;
  std::chrono::steady_clock::time_point submitted_at{};
  std::chrono::steady_clock::time_point started_at{};
};

}  // namespace detail

/// Future-like handle on a submitted request. Copyable; all copies share the
/// same underlying state.
class Ticket {
 public:
  Ticket() = default;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const;
  [[nodiscard]] RequestState state() const;

  /// Blocks until the request reaches a terminal state; the returned
  /// reference stays valid for the ticket's lifetime (terminal outcomes are
  /// immutable).
  const RequestOutcome& wait() const&;
  /// On a temporary ticket (`srv.submit(...).wait()`) the outcome is
  /// returned by value: the ticket, and possibly the last reference to its
  /// state, dies at the end of the full expression, so a reference would
  /// dangle once the server drops its own.
  RequestOutcome wait() &&;

  /// Non-blocking: a copy of the outcome once terminal, nullopt before.
  [[nodiscard]] std::optional<RequestOutcome> poll() const;

  /// Requests cooperative cancellation. Queued requests resolve Cancelled
  /// when the scheduler reaches them; a running one stops at the pipeline's
  /// next stage boundary with partial progress. Cancelling a coalesced
  /// follower detaches only that ticket — its leader (and any other
  /// followers) keep running. No-op once terminal.
  void cancel() const;

 private:
  friend class SpecializationServer;
  explicit Ticket(std::shared_ptr<detail::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::TicketState> state_;
};

}  // namespace jitise::server
