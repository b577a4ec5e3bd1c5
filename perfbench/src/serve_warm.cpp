// serve_warm — one SpecializationServer (2 pool workers, 2 sessions,
// sessions opted into the pool) under 4 closed-loop tenants, after set-up
// warmed the shared caches with one request per application.
//
// Every bitstream is cached, so a request costs admission and scheduling,
// search, estimation, selection and rewrite: the cache read path. Each
// tenant waits for its result like a JIT VM waiting to install, then sends
// its next seeded draw from all applications; every request carries a
// unique module name, so nothing coalesces.
//
// Not a BENCHMARK.json workload: each warm 188.ammp request re-runs a
// ~1.3 s speculatively streamed CAD chain that never enters the cache,
// blocking a session and a pool worker, and the closed loop around those
// stalls spreads run-to-run results beyond any allowed bound. It stays
// runnable by name for A/B evidence on the speculative-streaming path.
#include <algorithm>
#include <thread>
#include <utility>

#include "replay.hpp"
#include "server/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace server = jx::server;

constexpr unsigned kTenants = 4;
constexpr std::size_t kDrawsPerTenant = 4096;  // far beyond any run
constexpr std::size_t kTracedPerTenant = 30;   // fixed work of a traced pass

server::ServerConfig server_config() {
  server::ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_sessions = 2;
  cfg.specializer.jobs = 2;
  return cfg;
}

struct Warm {
  std::vector<AppInput> inputs;
  std::unique_ptr<server::SpecializationServer> srv;
  std::vector<std::string> setup_failures;
};

std::shared_ptr<const jx::ir::Module> renamed(const jx::ir::Module& module,
                                              const std::string& suffix) {
  auto copy = std::make_shared<jx::ir::Module>(module);
  copy->name += suffix;
  return copy;
}

Warm warm_up(const std::vector<std::string>& names, Tracer* tracer,
             LayerCounts* counts, const PinnedDigests& pinned,
             jx::jit::PipelineObserver* observer) {
  Warm w;
  w.inputs = build_inputs(names, tracer, counts);
  server::ServerConfig cfg = server_config();
  cfg.pipeline_observer = observer;
  w.srv = std::make_unique<server::SpecializationServer>(cfg);
  std::vector<server::Ticket> tickets;
  for (const AppInput& in : w.inputs) {
    server::SpecializationRequest req;
    req.tenant = "warmup";
    req.module = renamed(in.app.module, "#warmup");
    req.profile = in.profile;
    tickets.push_back(w.srv->submit(std::move(req)));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const server::RequestOutcome& out = tickets[i].wait();
    const std::string& app = w.inputs[i].app.name;
    if (out.state != server::RequestState::Done || !out.result)
      w.setup_failures.push_back(app + ": warm-up request " +
                                 server::state_name(out.state));
    else if (std::string why = pinned.check(app, OpDigest::of(*out.result));
             !why.empty())
      w.setup_failures.push_back("warm-up " + why);
  }
  return w;
}

struct Completed {
  std::size_t app = 0;
  double ms = 0.0;
  double submit_us = 0.0;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  server::RequestState state = server::RequestState::Queued;
  std::string reason;
  OpDigest digest;
  std::uint64_t output_key = 0;
  std::uint64_t cad_used = 0;
};

/// Runs the closed loop: each tenant submits its next draw once its
/// previous request resolved, until `seconds` elapse (or, with
/// `per_tenant` > 0, exactly that many requests each). Returns the wall
/// time; `done` is in tenant-major order.
double run_clients(server::SpecializationServer& srv,
                   const std::vector<AppInput>& inputs,
                   const std::vector<std::vector<std::size_t>>& draws,
                   double seconds, std::size_t per_tenant,
                   const std::string& tag, Tracer* tracer,
                   OutputVerifier& verifier, std::vector<Completed>& done) {
  std::vector<std::vector<Completed>> per(kTenants);
  Stopwatch wall;
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      for (std::size_t i = 0; i < draws[t].size(); ++i) {
        if (per_tenant > 0 ? i >= per_tenant : wall.s() >= seconds) break;
        const std::size_t app = draws[t][i];
        const AppInput& in = inputs[app];
        server::SpecializationRequest req;
        req.tenant = tenant;
        req.module = renamed(in.app.module, "#" + tag + std::to_string(t) +
                                                "." + std::to_string(i));
        req.profile = in.profile;

        const std::uint64_t op_id = t * 1000000ull + i;
        Completed c;
        c.app = app;
        Tracer::Scope op_span(tracer, "op.request", op_id);
        Stopwatch latency;
        server::Ticket ticket;
        {
          Tracer::Scope span(tracer, "server.submit", op_id);
          Stopwatch submit;
          ticket = srv.submit(std::move(req));
          c.submit_us = submit.ms() * 1e3;
        }
        const double submitted_us = tracer ? tracer->now_us() : 0.0;
        {
          Tracer::Scope span(tracer, "server.wait", op_id);
          const server::RequestOutcome& out = ticket.wait();
          c.ms = latency.ms();
          if (tracer != nullptr)
            record_server_split(*tracer, op_id, submitted_us - c.submit_us,
                                out);
          c.state = out.state;
          c.reason = out.reason;
          c.queue_ms = out.queue_ms;
          c.run_ms = out.run_ms;
          if (out.state == server::RequestState::Done && out.result) {
            c.digest = OpDigest::of(*out.result);
            c.cad_used = cad_results_used(*out.result);
            c.output_key = verifier.add(&in.app.module, &in.refs, *out.result);
          }
        }
        per[t].push_back(std::move(c));
      }
    });
  }
  for (std::thread& c : clients) c.join();
  const double ms = wall.ms();
  for (auto& v : per)
    for (Completed& c : v) done.push_back(std::move(c));
  return ms;
}

}  // namespace

std::uint64_t cad_results_used(const jx::jit::SpecializationResult& result) {
  std::uint64_t used = result.candidates_failed;
  for (const jx::jit::ImplementedCandidate& impl : result.implemented)
    used += impl.cache_hit ? 0 : 1;
  return used;
}

WorkloadResult run_serve_warm(const Options& opt) {
  WorkloadResult out;
  const PinnedDigests pinned = PinnedDigests::load(opt.digests);
  const std::vector<std::string> names = suite_names(opt.tiny);
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>();
  LayerCounts counts;
  CadCounter cad;

  Warm warm = repeat_setup<Warm>(opt, out, [&] {
    return warm_up(names, tracer.get(), &counts, pinned,
                   opt.trace ? &cad : nullptr);
  });
  for (const std::string& f : warm.setup_failures) out.fail(f);
  server::SpecializationServer& srv = *warm.srv;

  // Each tenant draws in seeded rounds, every round a fresh shuffle of all
  // applications: the order is random, but every run requests each
  // application about equally often, so the mix (and with it throughput)
  // does not swing with the seed.
  std::vector<std::vector<std::size_t>> draws(kTenants);
  Mix sched;
  for (unsigned t = 0; t < kTenants; ++t) {
    jx::support::Xoshiro256 rng(opt.seed * 0x9E3779B97F4A7C15ULL + t);
    while (draws[t].size() < kDrawsPerTenant) {
      const std::vector<std::size_t> round =
          permutation(warm.inputs.size(), rng);
      draws[t].insert(draws[t].end(), round.begin(), round.end());
    }
    for (std::size_t a : draws[t]) sched.add(a);
  }
  out.schedule_hash = sched.h;

  OutputVerifier verifier;
  std::vector<Completed> done;
  const std::size_t traced_per_tenant = opt.tiny ? 3 : kTracedPerTenant;
  if (!opt.trace) {
    out.timed_s = run_clients(srv, warm.inputs, draws, opt.seconds,
                              opt.tiny ? traced_per_tenant : 0, "r", nullptr,
                              verifier, done) /
                  1e3;
  } else {
    // The same fixed request list untraced, then traced (fresh names so
    // the passes never coalesce); then the decomposed warm replay.
    std::vector<Completed> untraced;
    counts.untraced_ms =
        run_clients(srv, warm.inputs, draws, 0.0, traced_per_tenant, "u",
                    nullptr, verifier, untraced);
    const server::ServerStats before = srv.stats();
    const std::uint64_t hits0 = srv.cache().hits();
    const std::uint64_t misses0 = srv.cache().misses();
    const std::uint64_t evict0 = srv.cache().evictions();
    cad.reset();
    counts.traced_ms =
        run_clients(srv, warm.inputs, draws, 0.0, traced_per_tenant, "t",
                    tracer.get(), verifier, done);
    const server::ServerStats after = srv.stats();
    counts.cache_hits = srv.cache().hits() - hits0;
    counts.cache_misses = srv.cache().misses() - misses0;
    counts.cache_evictions = srv.cache().evictions() - evict0;
    cad.report(counts);
    for (const Completed& c : done) {
      counts.cad_used += c.cad_used;
      counts.submit_us.push_back(c.submit_us);
      counts.queue_ms.push_back(c.queue_ms);
      counts.run_ms.push_back(c.run_ms);
    }
    counts.rejected = after.admission_rejections - before.admission_rejections;
    counts.coalesced = after.coalesced_submits - before.coalesced_submits;
    counts.steals = after.executor.steals - before.executor.steals;
    counts.occupancy_hw = after.executor.occupancy_high_water;

    // Decomposed replay of the same requests against the server's warm
    // bitstream cache; it must agree with the server bit for bit.
    jx::estimation::EstimateCache estimates;
    ReplayCounters warming;
    const jx::jit::SpecializerConfig cfg = server_config().specializer;
    for (const AppInput& in : warm.inputs)  // warm the estimate memo
      (void)replay_specialize(in.app.module, *in.profile, cfg, &srv.cache(),
                              &estimates, nullptr, 0, warming);
    const std::uint64_t est_hits0 = estimates.hits();
    const std::uint64_t est_misses0 = estimates.misses();
    for (std::size_t k = 0; k < done.size(); ++k) {
      const AppInput& in = warm.inputs[done[k].app];
      const ReplayResult rep =
          replay_specialize(in.app.module, *in.profile, cfg, &srv.cache(),
                            &estimates, tracer.get(), 1000000000ull + k,
                           counts.replay);
      if (done[k].state == server::RequestState::Done &&
          rep.digest.hash() != done[k].digest.hash())
        out.fail(in.app.name + ": decomposed warm replay differs from the "
                               "server's result");
    }
    counts.estimate_hits = estimates.hits() - est_hits0;
    counts.estimate_misses = estimates.misses() - est_misses0;
    if (counts.replay.routing_problems != 0)
      out.fail("fpga::validate_routing reported problems in the warm replay");
  }

  // Checks, outside the timed region.
  verifier.verify();
  Mix digests;
  std::vector<double> speedups;
  for (const Completed& c : done) {
    const std::string& app = warm.inputs[c.app].app.name;
    ++out.attempted;
    out.op_ms.push_back(c.ms);
    if (c.state != server::RequestState::Done) {
      out.fail(app + ": request " + server::state_name(c.state) + " " +
               c.reason);
      continue;
    }
    speedups.push_back(c.digest.predicted_speedup);
    digests.add(c.digest.hash());
    std::string why = pinned.check(app, c.digest);
    if (why.empty() && !verifier.passed(c.output_key))
      why = app + ": adapted output differs on the ref data set";
    if (!why.empty()) out.fail(why);
  }
  out.digest_hash = digests.h;
  out.modeled_speedup = geomean(speedups);
  const server::ServerStats stats = srv.stats();
  out.notes.push_back(
      "tenants " + std::to_string(kTenants) + ", requests " +
      std::to_string(done.size()) + ", rejected " +
      std::to_string(stats.admission_rejections) + ", coalesced " +
      std::to_string(stats.coalesced_submits) + ", distinct adapted binaries " +
      std::to_string(verifier.distinct()));
  if (tracer) {
    out.layers = layer_metrics(*tracer, counts);
    if (!opt.trace_out.empty() && !tracer->write_json(opt.trace_out))
      out.notes.push_back("could not write " + opt.trace_out);
  }
  return out;
}

}  // namespace perfbench
