// SpecializationServer tests: admission backpressure, per-tenant fairness,
// priority ordering, deadline expiry and cooperative cancellation (queued and
// mid-CAD), drain semantics, journal integrity across cancelled sessions,
// and single-tenant equivalence with the direct specialize() path. The
// stress case runs the full multi-tenant machinery and is part of the CI
// TSan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "fault_injection.hpp"
#include "jit/cache_io.hpp"
#include "server/server.hpp"
#include "vm/interpreter.hpp"

namespace {

using namespace jitise;
using jitise::testing::KillAfterWrites;

/// Prebuilt (module, profile) pair; built once per app and shared by every
/// request (the aliasing shared_ptr keeps the App alive).
struct TestApp {
  std::shared_ptr<const ir::Module> module;
  std::shared_ptr<const vm::Profile> profile;
};

const TestApp& test_app(const std::string& name) {
  static std::mutex mu;
  static std::map<std::string, TestApp> built;
  std::lock_guard<std::mutex> lock(mu);
  auto it = built.find(name);
  if (it != built.end()) return it->second;
  auto app = std::make_shared<apps::App>(apps::build_app(name));
  vm::Machine machine(app->module);
  machine.run(app->entry, app->datasets[0].args, 1ull << 30);
  TestApp t;
  t.module = std::shared_ptr<const ir::Module>(app, &app->module);
  t.profile = std::make_shared<const vm::Profile>(machine.profile());
  return built.emplace(name, std::move(t)).first->second;
}

server::SpecializationRequest make_request(const std::string& tenant,
                                           const std::string& app = "adpcm") {
  server::SpecializationRequest req;
  req.tenant = tenant;
  req.module = test_app(app).module;
  req.profile = test_app(app).profile;
  return req;
}

/// Server observer that blocks the FIRST session inside on_started until
/// released, pinning the single worker so later submissions pile up in the
/// queue deterministically. Also records the start order (tenant + id).
class GateObserver final : public server::ServerObserver {
 public:
  void on_started(std::uint64_t id, const std::string& tenant) override {
    std::unique_lock<std::mutex> lock(mu_);
    order_.emplace_back(tenant, id);
    ++started_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }

  void wait_for_started(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return started_ >= n; });
  }

  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> order() {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::size_t started_ = 0;
  std::vector<std::pair<std::string, std::uint64_t>> order_;
};

TEST(Server, BackpressureRejectsWhenQueueFull) {
  server::ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.specializer.jobs = 1;
  // These queue-mechanics tests submit identical (module, profile) payloads
  // on purpose; coalescing would fold them into one run instead of queueing.
  config.coalesce_requests = false;
  server::SpecializationServer srv(config);
  GateObserver gate;
  srv.add_observer(&gate);

  server::Ticket running = srv.submit(make_request("t"));
  gate.wait_for_started(1);  // worker pinned; queue is now empty
  server::Ticket q1 = srv.submit(make_request("t"));
  server::Ticket q2 = srv.submit(make_request("t"));
  server::Ticket over = srv.submit(make_request("t"));

  // The overflow submission is already terminal, with the reason attached.
  EXPECT_EQ(over.state(), server::RequestState::Rejected);
  const auto outcome = over.poll();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_NE(outcome->reason.find("queue full"), std::string::npos);
  EXPECT_FALSE(outcome->result.has_value());

  gate.release();
  EXPECT_EQ(running.wait().state, server::RequestState::Done);
  EXPECT_EQ(q1.wait().state, server::RequestState::Done);
  EXPECT_EQ(q2.wait().state, server::RequestState::Done);
  srv.drain();

  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.admission_rejections, 1u);
  EXPECT_EQ(stats.queue_high_water, 2u);
  EXPECT_EQ(stats.tenants.at("t").rejected, 1u);
  EXPECT_EQ(stats.tenants.at("t").completed, 3u);
}

TEST(Server, RoundRobinFairnessUnderTenantFlood) {
  server::ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 16;
  config.specializer.jobs = 1;
  config.coalesce_requests = false;  // identical payloads must queue
  server::SpecializationServer srv(config);
  GateObserver gate;
  srv.add_observer(&gate);

  // Tenant A floods the queue while the single worker is pinned on A's
  // first request; tenant B arrives last. Round-robin must interleave B
  // between A's queued requests instead of letting the flood starve it.
  std::vector<server::Ticket> tickets;
  tickets.push_back(srv.submit(make_request("tenant-a")));
  gate.wait_for_started(1);
  for (int i = 0; i < 3; ++i)
    tickets.push_back(srv.submit(make_request("tenant-a")));
  for (int i = 0; i < 2; ++i)
    tickets.push_back(srv.submit(make_request("tenant-b")));

  gate.release();
  for (auto& t : tickets)
    EXPECT_EQ(t.wait().state, server::RequestState::Done);
  srv.drain();

  std::vector<std::string> started;
  for (const auto& [tenant, id] : gate.order()) started.push_back(tenant);
  const std::vector<std::string> expected = {"tenant-a", "tenant-b",
                                             "tenant-a", "tenant-b",
                                             "tenant-a", "tenant-a"};
  EXPECT_EQ(started, expected);
}

TEST(Server, PriorityOrdersWithinOneTenant) {
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  config.coalesce_requests = false;  // identical payloads must queue
  server::SpecializationServer srv(config);
  GateObserver gate;
  srv.add_observer(&gate);

  server::Ticket first = srv.submit(make_request("t"));
  gate.wait_for_started(1);
  server::SpecializationRequest low1 = make_request("t");
  server::SpecializationRequest low2 = make_request("t");
  server::SpecializationRequest high = make_request("t");
  high.priority = 5;
  const std::uint64_t low1_id = srv.submit(std::move(low1)).id();
  const std::uint64_t low2_id = srv.submit(std::move(low2)).id();
  const std::uint64_t high_id = srv.submit(std::move(high)).id();

  gate.release();
  srv.drain();

  std::vector<std::uint64_t> started;
  for (const auto& [tenant, id] : gate.order()) started.push_back(id);
  ASSERT_EQ(started.size(), 4u);
  EXPECT_EQ(started[0], first.id());
  // The high-priority request overtakes the earlier low-priority ones,
  // which keep FIFO order among themselves.
  EXPECT_EQ(started[1], high_id);
  EXPECT_EQ(started[2], low1_id);
  EXPECT_EQ(started[3], low2_id);
}

TEST(Server, DeadlineExpiresWhileQueued) {
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  config.coalesce_requests = false;  // identical payloads must queue
  server::SpecializationServer srv(config);
  GateObserver gate;
  srv.add_observer(&gate);

  server::Ticket running = srv.submit(make_request("t"));
  gate.wait_for_started(1);
  server::SpecializationRequest doomed = make_request("t");
  doomed.deadline_ms = 1.0;
  server::Ticket expired = srv.submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  gate.release();
  const server::RequestOutcome& out = expired.wait();
  EXPECT_EQ(out.state, server::RequestState::Expired);
  EXPECT_NE(out.reason.find("while queued"), std::string::npos);
  EXPECT_FALSE(out.result.has_value());
  EXPECT_FALSE(out.progress.search_complete);
  EXPECT_EQ(running.wait().state, server::RequestState::Done);
  srv.drain();
  EXPECT_EQ(srv.stats().expiries, 1u);
}

/// Pipeline observer that parks the session at its first CAD dispatch until
/// the test hands it the ticket to cancel — a deterministic mid-CAD
/// cancellation/expiry point regardless of machine speed.
class CancelAtFirstDispatch final : public jit::PipelineObserver {
 public:
  void arm(server::Ticket ticket) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ticket_ = std::move(ticket);
      armed_ = true;
    }
    cv_.notify_all();
  }

  void on_candidate_dispatched(std::uint64_t, bool) override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return armed_; });
    ticket_.cancel();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  server::Ticket ticket_;
};

TEST(Server, CancelMidCadReportsPartialProgress) {
  CancelAtFirstDispatch canceller;
  server::ServerConfig config;
  config.workers = 1;
  // jobs=1 keeps the pipeline serial: search runs to completion, the first
  // dispatch parks in the observer, and the cancellation surfaces at the
  // ImplementationStage boundary check.
  config.specializer.jobs = 1;
  config.pipeline_observer = &canceller;
  server::SpecializationServer srv(config);

  server::Ticket ticket = srv.submit(make_request("t"));
  canceller.arm(ticket);
  const server::RequestOutcome& out = ticket.wait();
  EXPECT_EQ(out.state, server::RequestState::Cancelled);
  EXPECT_FALSE(out.result.has_value());
  // Partial progress: the search phase finished, at least one candidate was
  // dispatched, none completed implementation.
  EXPECT_TRUE(out.progress.search_complete);
  EXPECT_GE(out.progress.blocks_searched, 1u);
  EXPECT_GE(out.progress.dispatched, 1u);
  EXPECT_EQ(out.progress.implemented, 0u);
  srv.drain();
  EXPECT_EQ(srv.stats().cancellations, 1u);
}

/// Sleeps past the request's deadline at the first dispatch, so the expiry
/// fires mid-CAD at the next stage-boundary check.
class StallPastDeadline final : public jit::PipelineObserver {
 public:
  void on_candidate_dispatched(std::uint64_t, bool) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  }
};

TEST(Server, DeadlineExpiresMidCad) {
  StallPastDeadline stall;
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  config.pipeline_observer = &stall;
  server::SpecializationServer srv(config);

  server::SpecializationRequest req = make_request("t");
  req.deadline_ms = 200.0;  // outlives queueing + search, not the stall
  server::Ticket ticket = srv.submit(std::move(req));
  const server::RequestOutcome& out = ticket.wait();
  EXPECT_EQ(out.state, server::RequestState::Expired);
  EXPECT_FALSE(out.result.has_value());
  EXPECT_TRUE(out.progress.search_complete);
  EXPECT_GE(out.progress.dispatched, 1u);
  EXPECT_EQ(out.progress.implemented, 0u);
  srv.drain();
  EXPECT_EQ(srv.stats().expiries, 1u);
}

TEST(Server, CancelledSessionNeverTearsTheJournal) {
  const std::string path = "/tmp/jitise_server_cancel.jrnl";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  std::size_t live_entries = 0;
  {
    CancelAtFirstDispatch canceller;
    server::ServerConfig config;
    config.workers = 1;
    config.specializer.jobs = 1;
    config.cache_journal_file = path;
    config.pipeline_observer = &canceller;
    server::SpecializationServer srv(config);

    // First request is cancelled mid-CAD; later dispatches re-cancel the
    // same (already terminal) ticket, which is a no-op, so the second
    // request runs to completion and populates the shared cache + journal.
    server::Ticket doomed = srv.submit(make_request("t", "adpcm"));
    canceller.arm(doomed);
    EXPECT_EQ(doomed.wait().state, server::RequestState::Cancelled);
    server::Ticket ok = srv.submit(make_request("t", "fft"));
    EXPECT_EQ(ok.wait().state, server::RequestState::Done);
    srv.drain();
    live_entries = srv.cache().entries();
    EXPECT_GT(live_entries, 0u);
  }

  // The journal a drained server leaves behind replays cleanly and in full.
  jit::BitstreamCache replayed;
  const jit::CacheLoadReport report = jit::load_cache(replayed, path);
  EXPECT_FALSE(report.recovered_truncation);
  EXPECT_EQ(report.entries, live_entries);
  std::remove(path.c_str());
}

TEST(Server, CrashDuringDrainLeavesReplayableJournalPrefix) {
  const std::string path = "/tmp/jitise_server_crash.jrnl";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  std::set<std::uint64_t> full_signatures;
  {
    server::ServerConfig config;
    config.workers = 1;
    config.specializer.jobs = 1;
    // Buffer every record until drain so the injected crash hits a sync
    // with real work pending.
    config.specializer.sync_cache_journal = false;
    config.cache_journal_file = path;
    std::optional<server::SpecializationServer> srv(std::in_place, config);

    EXPECT_EQ(srv->submit(make_request("t", "adpcm")).wait().state,
              server::RequestState::Done);
    EXPECT_EQ(srv->submit(make_request("t", "fft")).wait().state,
              server::RequestState::Done);
    for (const auto& [sig, entry] : srv->cache().snapshot())
      full_signatures.insert(sig);
    ASSERT_FALSE(full_signatures.empty());

    // Kill the drain's journal append after a few physical writes; the
    // destructor's best-effort retries die on the same hook.
    KillAfterWrites kill(3);
    EXPECT_THROW(srv->drain(), KillAfterWrites::InjectedCrash);
    srv.reset();
  }

  // Whatever prefix made it to disk replays without error, and every
  // replayed entry is one the server actually inserted.
  jit::BitstreamCache replayed;
  jit::CacheLoadReport report;
  EXPECT_NO_THROW(report = jit::load_cache(replayed, path));
  EXPECT_LE(report.entries, full_signatures.size());
  for (const auto& [sig, entry] : replayed.snapshot())
    EXPECT_TRUE(full_signatures.count(sig)) << sig;
  std::remove(path.c_str());
}

TEST(Server, SingleTenantMatchesDirectSpecialize) {
  const std::vector<std::string> apps = {"adpcm", "fft"};

  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 2;
  server::SpecializationServer srv(config);
  std::vector<server::RequestOutcome> served;
  for (const auto& name : apps)
    served.push_back(srv.submit(make_request("t", name)).wait());
  srv.drain();

  // Direct path: same configs, same shared-cache discipline, same order.
  jit::BitstreamCache cache;
  estimation::EstimateCache estimates;
  std::vector<jit::SpecializationResult> direct;
  for (const auto& name : apps) {
    const TestApp& app = test_app(name);
    direct.push_back(jit::specialize(*app.module, *app.profile,
                                     config.specializer, &cache, &estimates));
  }

  for (std::size_t i = 0; i < apps.size(); ++i) {
    ASSERT_EQ(served[i].state, server::RequestState::Done) << apps[i];
    ASSERT_TRUE(served[i].result.has_value());
    const jit::SpecializationResult& s = *served[i].result;
    const jit::SpecializationResult& d = direct[i];
    ASSERT_EQ(s.implemented.size(), d.implemented.size()) << apps[i];
    for (std::size_t k = 0; k < s.implemented.size(); ++k) {
      EXPECT_EQ(s.implemented[k].signature, d.implemented[k].signature);
      EXPECT_EQ(s.implemented[k].bitstream_bytes,
                d.implemented[k].bitstream_bytes);
      EXPECT_EQ(s.implemented[k].hw_cycles, d.implemented[k].hw_cycles);
      EXPECT_EQ(s.implemented[k].cache_hit, d.implemented[k].cache_hit);
    }
    EXPECT_DOUBLE_EQ(s.sum_total_s, d.sum_total_s) << apps[i];
    EXPECT_DOUBLE_EQ(s.predicted_speedup, d.predicted_speedup) << apps[i];
  }
}

namespace {

/// Runs every app through a server with the given substrate and returns the
/// outcomes in submission order (each request waited before the next is
/// submitted, so the shared cache/estimate discipline matches a serial run).
std::vector<server::RequestOutcome> serve_all(
    const std::vector<std::string>& apps, unsigned jobs, unsigned workers) {
  server::ServerConfig config;
  config.workers = workers;
  config.specializer.jobs = jobs;
  server::SpecializationServer srv(config);
  std::vector<server::RequestOutcome> served;
  for (const auto& name : apps)
    served.push_back(srv.submit(make_request("t", name)).wait());
  srv.drain();
  return served;
}

void expect_results_identical(const std::vector<server::RequestOutcome>& a,
                              const std::vector<server::RequestOutcome>& b,
                              const std::vector<std::string>& apps,
                              const char* legs) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].state, server::RequestState::Done) << legs << apps[i];
    ASSERT_EQ(b[i].state, server::RequestState::Done) << legs << apps[i];
    ASSERT_TRUE(a[i].result.has_value() && b[i].result.has_value());
    const jit::SpecializationResult& x = *a[i].result;
    const jit::SpecializationResult& y = *b[i].result;
    ASSERT_EQ(x.implemented.size(), y.implemented.size()) << legs << apps[i];
    for (std::size_t k = 0; k < x.implemented.size(); ++k) {
      EXPECT_EQ(x.implemented[k].signature, y.implemented[k].signature);
      EXPECT_EQ(x.implemented[k].bitstream_bytes,
                y.implemented[k].bitstream_bytes);
      EXPECT_EQ(x.implemented[k].hw_cycles, y.implemented[k].hw_cycles);
      EXPECT_EQ(x.implemented[k].cache_hit, y.implemented[k].cache_hit);
    }
    EXPECT_DOUBLE_EQ(x.sum_total_s, y.sum_total_s) << legs << apps[i];
    EXPECT_DOUBLE_EQ(x.predicted_speedup, y.predicted_speedup)
        << legs << apps[i];
  }
}

}  // namespace

// Acceptance gate: every request's SpecializationResult must be bit-identical
// across the execution substrates — strictly serial (jobs=1, no pool) and
// the global work-stealing pool — for arbitrary worker counts (JITISE_JOBS
// sweeps them in CI).
TEST(Server, ExecutorSubstratesAreBitIdentical) {
  const std::vector<std::string> apps = {"adpcm", "fft", "adpcm"};
  unsigned jobs = 4;
  if (const char* env = std::getenv("JITISE_JOBS"))
    jobs = static_cast<unsigned>(std::max(1, std::atoi(env)));

  const auto serial = serve_all(apps, /*jobs=*/1, /*workers=*/1);
  const auto stealing = serve_all(apps, jobs, /*workers=*/jobs);

  expect_results_identical(serial, stealing, apps, "serial-vs-stealing ");
}

TEST(Server, ExecutorStatsSurfaceTaskAndOccupancyCounts) {
  server::ServerConfig config;
  config.workers = 4;
  config.specializer.jobs = 4;
  // Disable pruning so the selection (and with it the CAD fan-out on the
  // shared pool) spans many blocks, giving the counters something to count.
  config.specializer.prune = ise::PruneConfig::none();
  server::SpecializationServer srv(config);
  EXPECT_EQ(srv.submit(make_request("t", "fft")).wait().state,
            server::RequestState::Done);
  srv.drain();

  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.executor.workers, 4u);
  EXPECT_GT(stats.executor.tasks, 0u);
  EXPECT_GE(stats.executor.occupancy_high_water, 1u);
  // Steals are scheduling-dependent; just check the counter is wired (it
  // must not exceed total tasks).
  EXPECT_LE(stats.executor.steals, stats.executor.tasks);
}

TEST(Server, SubmitAfterDrainIsRejected) {
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  server::SpecializationServer srv(config);
  srv.drain();
  const server::Ticket ticket = srv.submit(make_request("t"));
  EXPECT_EQ(ticket.state(), server::RequestState::Rejected);
  const auto outcome = ticket.poll();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_NE(outcome->reason.find("draining"), std::string::npos);
}

TEST(Server, ConcurrentTenantsStress) {
  server::ServerConfig config;
  config.workers = 3;
  config.max_sessions = 6;  // more coordinators than pool workers
  config.queue_capacity = 64;
  config.specializer.jobs = 2;
  server::SpecializationServer srv(config);

  constexpr unsigned kTenants = 3;
  constexpr unsigned kPerTenant = 3;
  std::vector<std::thread> submitters;
  std::vector<std::vector<server::Ticket>> tickets(kTenants);
  for (unsigned t = 0; t < kTenants; ++t) {
    submitters.emplace_back([&, t] {
      for (unsigned r = 0; r < kPerTenant; ++r) {
        const char* app = (t + r) % 2 == 0 ? "adpcm" : "fft";
        server::Ticket ticket =
            srv.submit(make_request("tenant-" + std::to_string(t), app));
        // Every third request is cancelled right away, exercising both the
        // cancelled-while-queued and cancelled-mid-run paths under load.
        if (r % 3 == 2) ticket.cancel();
        tickets[t].push_back(std::move(ticket));
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (auto& per_tenant : tickets)
    for (auto& ticket : per_tenant)
      EXPECT_TRUE(server::is_terminal(ticket.wait().state));
  srv.drain();

  const server::ServerStats stats = srv.stats();
  std::uint64_t terminal = 0;
  for (const auto& [tenant, ts] : stats.tenants) {
    EXPECT_EQ(ts.submitted, kPerTenant);
    EXPECT_EQ(ts.rejected, 0u);
    terminal += ts.completed + ts.failed + ts.cancelled + ts.expired;
  }
  EXPECT_EQ(terminal, kTenants * kPerTenant);
  // Drain is idempotent once quiescent.
  EXPECT_NO_THROW(srv.drain());
}

// --- Request coalescing -----------------------------------------------------

TEST(Server, CoalescedFollowerMatchesLeaderBitIdentical) {
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  server::SpecializationServer srv(config);
  GateObserver gate;
  srv.add_observer(&gate);

  server::Ticket leader = srv.submit(make_request("a"));
  gate.wait_for_started(1);  // leader pinned in-flight
  server::Ticket follower = srv.submit(make_request("b"));
  EXPECT_FALSE(server::is_terminal(follower.state()));

  gate.release();
  const server::RequestOutcome lead = leader.wait();
  const server::RequestOutcome follow = follower.wait();
  srv.drain();

  ASSERT_EQ(lead.state, server::RequestState::Done);
  ASSERT_EQ(follow.state, server::RequestState::Done);
  EXPECT_FALSE(lead.coalesced);
  EXPECT_TRUE(follow.coalesced);
  EXPECT_EQ(follow.leader_id, lead.id);
  EXPECT_EQ(follow.signature, lead.signature);
  EXPECT_NE(follow.signature, 0u);

  // The follower's result is bit-identical to the leader's.
  ASSERT_TRUE(lead.result.has_value());
  ASSERT_TRUE(follow.result.has_value());
  const jit::SpecializationResult& l = *lead.result;
  const jit::SpecializationResult& f = *follow.result;
  ASSERT_EQ(f.implemented.size(), l.implemented.size());
  for (std::size_t k = 0; k < f.implemented.size(); ++k) {
    EXPECT_EQ(f.implemented[k].signature, l.implemented[k].signature);
    EXPECT_EQ(f.implemented[k].bitstream_bytes, l.implemented[k].bitstream_bytes);
    EXPECT_EQ(f.implemented[k].hw_cycles, l.implemented[k].hw_cycles);
    EXPECT_EQ(f.implemented[k].cache_hit, l.implemented[k].cache_hit);
  }
  EXPECT_DOUBLE_EQ(f.sum_total_s, l.sum_total_s);
  EXPECT_DOUBLE_EQ(f.predicted_speedup, l.predicted_speedup);
  // Follower progress describes the leader's run.
  EXPECT_EQ(follow.progress.implemented, lead.progress.implemented);
  EXPECT_TRUE(follow.progress.search_complete);

  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.pipeline_runs, 1u);
  EXPECT_EQ(stats.coalesced_submits, 1u);
  EXPECT_EQ(stats.coalesced_completed, 1u);
  EXPECT_EQ(stats.promotions, 0u);
  // Cross-tenant accounting: each tenant saw one submission; the follower
  // tenant's completion is flagged coalesced.
  EXPECT_EQ(stats.tenants.at("a").completed, 1u);
  EXPECT_EQ(stats.tenants.at("a").coalesced, 0u);
  EXPECT_EQ(stats.tenants.at("b").completed, 1u);
  EXPECT_EQ(stats.tenants.at("b").coalesced, 1u);
}

TEST(Server, FollowerCancelLeavesLeaderRunning) {
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  server::SpecializationServer srv(config);
  GateObserver gate;
  srv.add_observer(&gate);

  server::Ticket leader = srv.submit(make_request("t"));
  gate.wait_for_started(1);
  server::Ticket f1 = srv.submit(make_request("t"));
  server::Ticket f2 = srv.submit(make_request("t"));
  f1.cancel();  // detaches f1 only; the leader and f2 are untouched

  gate.release();
  EXPECT_EQ(leader.wait().state, server::RequestState::Done);
  const server::RequestOutcome gone = f1.wait();
  EXPECT_EQ(gone.state, server::RequestState::Cancelled);
  EXPECT_NE(gone.reason.find("while coalesced"), std::string::npos);
  EXPECT_FALSE(gone.result.has_value());
  const server::RequestOutcome kept = f2.wait();
  EXPECT_EQ(kept.state, server::RequestState::Done);
  EXPECT_TRUE(kept.coalesced);
  srv.drain();

  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.pipeline_runs, 1u);
  EXPECT_EQ(stats.coalesced_submits, 2u);
  EXPECT_EQ(stats.coalesced_completed, 1u);
  EXPECT_EQ(stats.cancellations, 1u);
  EXPECT_EQ(stats.promotions, 0u);
}

TEST(Server, FollowerDeadlineExpiryDetachesFromLeader) {
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  server::SpecializationServer srv(config);
  GateObserver gate;
  srv.add_observer(&gate);

  server::Ticket leader = srv.submit(make_request("t"));
  gate.wait_for_started(1);
  server::SpecializationRequest doomed = make_request("t");
  doomed.deadline_ms = 1.0;  // expires long before the gated leader finishes
  server::Ticket follower = srv.submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  gate.release();
  EXPECT_EQ(leader.wait().state, server::RequestState::Done);
  const server::RequestOutcome out = follower.wait();
  EXPECT_EQ(out.state, server::RequestState::Expired);
  EXPECT_NE(out.reason.find("while coalesced"), std::string::npos);
  srv.drain();

  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.pipeline_runs, 1u);
  EXPECT_EQ(stats.expiries, 1u);
  EXPECT_EQ(stats.coalesced_completed, 0u);
}

TEST(Server, LeaderCancelPromotesOldestFollower) {
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  server::SpecializationServer srv(config);
  GateObserver gate;
  srv.add_observer(&gate);

  server::Ticket leader = srv.submit(make_request("t"));
  gate.wait_for_started(1);
  server::Ticket f1 = srv.submit(make_request("t"));
  server::Ticket f2 = srv.submit(make_request("t"));
  leader.cancel();  // fires mid-run; the cohort must not die with it

  gate.release();
  EXPECT_EQ(leader.wait().state, server::RequestState::Cancelled);
  // f1 (the oldest follower) is promoted into a fresh run of its own...
  const server::RequestOutcome first = f1.wait();
  ASSERT_EQ(first.state, server::RequestState::Done);
  EXPECT_FALSE(first.coalesced);
  EXPECT_EQ(first.leader_id, 0u);
  ASSERT_TRUE(first.result.has_value());
  // ...and f2 stays attached, now following f1.
  const server::RequestOutcome second = f2.wait();
  ASSERT_EQ(second.state, server::RequestState::Done);
  EXPECT_TRUE(second.coalesced);
  EXPECT_EQ(second.leader_id, first.id);
  srv.drain();

  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.cancellations, 1u);
  EXPECT_EQ(stats.coalesced_completed, 1u);
}

TEST(Server, DuplicateFloodRunsPipelineOncePerSignature) {
  server::ServerConfig config;
  config.workers = 2;
  config.queue_capacity = 2;  // followers are exempt from capacity
  config.specializer.jobs = 1;
  server::SpecializationServer srv(config);
  GateObserver gate;
  srv.add_observer(&gate);

  server::Ticket lead_a = srv.submit(make_request("t0", "adpcm"));
  gate.wait_for_started(1);
  server::Ticket lead_b = srv.submit(make_request("t0", "fft"));
  gate.wait_for_started(2);  // both workers pinned, queue empty

  // Flood duplicates from several tenants: every one must coalesce, none
  // may be rejected even though the queue only holds 2.
  std::vector<server::Ticket> dupes;
  for (int i = 0; i < 20; ++i) {
    const char* app = i % 2 == 0 ? "adpcm" : "fft";
    dupes.push_back(srv.submit(make_request("t" + std::to_string(i % 4), app)));
  }

  gate.release();
  const server::RequestOutcome out_a = lead_a.wait();
  const server::RequestOutcome out_b = lead_b.wait();
  ASSERT_EQ(out_a.state, server::RequestState::Done);
  ASSERT_EQ(out_b.state, server::RequestState::Done);
  for (auto& t : dupes) {
    const server::RequestOutcome out = t.wait();
    ASSERT_EQ(out.state, server::RequestState::Done);
    EXPECT_TRUE(out.coalesced);
    const server::RequestOutcome& lead =
        out.signature == out_a.signature ? out_a : out_b;
    EXPECT_EQ(out.signature, lead.signature);
    EXPECT_EQ(out.leader_id, lead.id);
    ASSERT_TRUE(out.result.has_value());
    EXPECT_EQ(out.result->implemented.size(), lead.result->implemented.size());
    EXPECT_DOUBLE_EQ(out.result->predicted_speedup,
                     lead.result->predicted_speedup);
  }
  srv.drain();

  const server::ServerStats stats = srv.stats();
  // Exactly one pipeline run per unique signature.
  EXPECT_EQ(stats.pipeline_runs, 2u);
  EXPECT_EQ(stats.coalesced_submits, 20u);
  EXPECT_EQ(stats.coalesced_completed, 20u);
  EXPECT_EQ(stats.admission_rejections, 0u);
  // Followers never occupied a queue slot: only the two leaders ever sat in
  // the queue, one at a time.
  EXPECT_LE(stats.queue_high_water, 1u);
}

// --- Admission-queue and stats bugfixes -------------------------------------

TEST(Server, DeadQueuedRequestsFreeCapacityForLiveTraffic) {
  server::ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  config.specializer.jobs = 1;
  config.coalesce_requests = false;  // identical payloads must queue
  server::SpecializationServer srv(config);
  GateObserver gate;
  srv.add_observer(&gate);

  server::Ticket running = srv.submit(make_request("t"));
  gate.wait_for_started(1);
  server::Ticket q1 = srv.submit(make_request("t"));
  server::Ticket q2 = srv.submit(make_request("t"));
  q1.cancel();
  q2.cancel();
  // The queue is nominally full, but both occupants are dead: the sweep
  // must reclaim their slots instead of rejecting live traffic.
  server::Ticket live = srv.submit(make_request("t"));
  EXPECT_NE(live.state(), server::RequestState::Rejected);

  gate.release();
  EXPECT_EQ(running.wait().state, server::RequestState::Done);
  EXPECT_EQ(live.wait().state, server::RequestState::Done);
  EXPECT_EQ(q1.wait().state, server::RequestState::Cancelled);
  EXPECT_EQ(q2.wait().state, server::RequestState::Cancelled);
  srv.drain();

  const server::ServerStats stats = srv.stats();
  EXPECT_EQ(stats.admission_rejections, 0u);
  EXPECT_EQ(stats.tenants.at("t").completed, 2u);
  EXPECT_EQ(stats.tenants.at("t").cancelled, 2u);
}

// A temporary ticket's wait() returns the outcome by value, so binding it to
// a const reference extends its lifetime past the ticket, past the server
// dropping its own reference, and past drain(). A reference into the
// ticket's shared state would dangle here (ASan: heap-use-after-free).
static_assert(std::is_same_v<decltype(std::declval<server::Ticket>().wait()),
                             server::RequestOutcome>);
static_assert(
    std::is_same_v<decltype(std::declval<const server::Ticket&>().wait()),
                   const server::RequestOutcome&>);

TEST(Server, WaitOnTemporaryTicketOutlivesDrain) {
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  config.specializer.implement_hardware = false;
  server::SpecializationServer srv(config);

  const server::RequestOutcome& out = srv.submit(make_request("t")).wait();
  srv.drain();
  EXPECT_EQ(out.state, server::RequestState::Done);
  EXPECT_EQ(out.tenant, "t");
  ASSERT_TRUE(out.result.has_value());
  EXPECT_GT(out.result->candidates_found, 0u);
}

TEST(Server, ThroughputWindowStartsAtFirstSubmission) {
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  server::SpecializationServer srv(config);
  // Idle head: a tenant that arrives late must not have its throughput
  // diluted by server uptime it never used.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(srv.submit(make_request("t")).wait().state,
            server::RequestState::Done);
  srv.drain();

  const server::ServerStats stats = srv.stats();
  const server::TenantStats& t = stats.tenants.at("t");
  ASSERT_EQ(t.completed, 1u);
  ASSERT_GT(stats.uptime_s, 0.0);
  const double naive = static_cast<double>(t.completed) / stats.uptime_s;
  EXPECT_GT(t.throughput_rps, naive * 1.2);
}

TEST(Server, StatsSurfaceCacheEvictionsAndEstimateHitRate) {
  server::ServerConfig config;
  config.workers = 1;
  config.specializer.jobs = 1;
  config.coalesce_requests = false;  // the repeat must re-run the pipeline
  // A cache too small for one app's bitstreams forces capacity evictions.
  config.cache_capacity_bytes = 1;
  server::SpecializationServer srv(config);

  srv.submit(make_request("t")).wait();
  const server::ServerStats cold = srv.stats();
  EXPECT_GT(cold.cache_evictions, 0u);
  EXPECT_GT(cold.estimate_misses, 0u);

  // Identical resubmission: every candidate estimate memoizes.
  srv.submit(make_request("t")).wait();
  srv.drain();
  const server::ServerStats warm = srv.stats();
  EXPECT_GE(warm.cache_evictions, cold.cache_evictions);
  EXPECT_GT(warm.estimate_hits, 0u);
  EXPECT_GT(warm.estimate_hit_rate(), 0.0);
  EXPECT_LE(warm.estimate_hit_rate(), 1.0);
  EXPECT_DOUBLE_EQ(warm.estimate_hit_rate(),
                   static_cast<double>(warm.estimate_hits) /
                       static_cast<double>(warm.estimate_hits +
                                           warm.estimate_misses));
}

}  // namespace
