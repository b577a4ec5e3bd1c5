// drift_rotor — one VM tenant whose workload rotates adpcm -> fft -> sor
// (the bench/phase_shift construction), drift policy only: each epoch runs
// the rotor once on the VM, streams the closed profiling window into
// observe_window on an adaptive server, and waits for any drift ticket it
// triggered.
//
// The VM carries most of the host time here and sets the median; the rare
// drift re-specializations evict and re-implement bitstreams (the
// evict-plus-write path) and set the tail. It is the only workload where
// the vm and adaptive layers carry the load.
#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <set>
#include <stdexcept>
#include <utility>

#include "adaptive/policy.hpp"
#include "hwlib/component.hpp"
#include "ir/builder.hpp"
#include "ir/link.hpp"
#include "replay.hpp"
#include "server/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace server = jx::server;

constexpr const char* kKernels[] = {"adpcm", "fft", "sor"};
/// Epochs per phase. With the default 2-window hysteresis each phase has
/// one drift epoch (VM run plus re-specialization) and kPeriod-1 plain VM
/// epochs; at 8 the median epoch lies well inside one kernel's VM-time
/// cluster (at 4 it sat on the edge between two, and jumped).
constexpr std::size_t kPeriod = 8;
constexpr std::size_t kMaxEpochs = 4096;    // far beyond any run
constexpr std::size_t kTracedEpochs = 48;  // fixed work of a traced pass
constexpr std::size_t kTinyEpochs = 12;
/// modeled_speedup accounts the first kAccountEpochs epochs (four full
/// rotations), so the modeled figure depends on the seed only, not on how
/// many epochs the machine got through in --seconds.
constexpr std::size_t kAccountEpochs = 4 * std::size(kKernels) * kPeriod;
/// Modeled cost of one re-specialization charged to the drift leg's net
/// cycles (the bench/phase_shift accounting), in CPU cycles.
constexpr double kRespecCostCycles = 150e3;

struct Kernel {
  std::string name;
  jx::ir::FuncId main = 0;
  std::int64_t train_n = 0;
};

struct Rotor {
  std::shared_ptr<const jx::ir::Module> module;
  std::vector<Kernel> kernels;
  std::vector<RefRun> refs;  // each kernel's ref data set
};

/// Fuses the kernel apps into one module with a `phase_main(sel, n)`
/// dispatcher that forwards to the selected app's main (mode 0 = train).
Rotor build_rotor() {
  Rotor r;
  auto merged = std::make_shared<jx::ir::Module>();
  merged->name = "phase_rotor";
  for (const char* name : kKernels) {
    jx::apps::App app = jx::apps::build_app(name);
    jx::ir::merge_module(*merged, app.module, std::string(name) + ".");
    const std::int64_t main_fn =
        merged->find_function(std::string(name) + ".main");
    if (main_fn < 0) throw std::logic_error("merged app lost its main");
    r.kernels.push_back(Kernel{name, static_cast<jx::ir::FuncId>(main_fn),
                               app.datasets.at(0).args.at(0).i});
    r.refs.push_back(RefRun{std::string(name) + ".main",
                            app.datasets.at(1).args});
  }

  using namespace jx::ir;
  FunctionBuilder fb(*merged, "phase_main", Type::I32, {Type::I32, Type::I32});
  BlockId cur = fb.entry();
  for (std::size_t k = 0; k < r.kernels.size(); ++k) {
    fb.set_insert(cur);
    if (k + 1 == r.kernels.size()) {
      fb.ret(fb.call(r.kernels[k].main, Type::I32,
                     {fb.param(1), fb.const_int(Type::I32, 0)}));
      break;
    }
    const ValueId hit =
        fb.icmp(ICmpPred::Eq, fb.param(0),
                fb.const_int(Type::I32, static_cast<std::int64_t>(k)));
    const BlockId call_b = fb.new_block("call_" + r.kernels[k].name);
    const BlockId else_b = fb.new_block("next_" + r.kernels[k].name);
    fb.condbr(hit, call_b, else_b);
    fb.set_insert(call_b);
    fb.ret(fb.call(r.kernels[k].main, Type::I32,
                   {fb.param(1), fb.const_int(Type::I32, 0)}));
    cur = else_b;
  }
  fb.finish();
  r.module = std::move(merged);
  return r;
}

struct Epoch {
  std::size_t kernel = 0;
  std::int64_t n = 0;
};

/// Seeded schedule: a shuffled rotation order, kPeriod epochs per phase,
/// and a small per-epoch jitter on each kernel's train size.
std::vector<Epoch> build_schedule(std::uint64_t seed,
                                  const std::vector<Kernel>& kernels) {
  jx::support::Xoshiro256 rng(seed);
  const std::vector<std::size_t> order = permutation(kernels.size(), rng);
  std::vector<Epoch> plan(kMaxEpochs);
  for (std::size_t e = 0; e < plan.size(); ++e) {
    const std::size_t k = order[(e / kPeriod) % order.size()];
    const std::int64_t base = kernels[k].train_n;
    const std::int64_t jitter =
        static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(base / 8 + 1))) -
        base / 16;
    plan[e] = Epoch{k, std::max<std::int64_t>(1, base + jitter)};
  }
  return plan;
}

/// One VM run of `phase_main(kernel, n)`; returns the closed window.
std::shared_ptr<const jx::vm::Profile> run_epoch(jx::vm::Machine& machine,
                                                 const Epoch& ep) {
  const std::array<jx::vm::Slot, 2> args{
      jx::vm::Slot::of_int(static_cast<std::int64_t>(ep.kernel)),
      jx::vm::Slot::of_int(ep.n)};
  machine.run("phase_main", args);
  return std::make_shared<const jx::vm::Profile>(
      machine.windows().back().delta);
}

std::unique_ptr<jx::vm::Machine> windowed_machine(const jx::ir::Module& m) {
  auto machine = std::make_unique<jx::vm::Machine>(m);
  jx::vm::WindowConfig wc;
  wc.per_run = true;
  wc.ring_capacity = 4;
  machine->enable_windowing(wc);
  return machine;
}

std::unique_ptr<server::SpecializationServer> drift_server(
    jx::jit::PipelineObserver* observer) {
  server::ServerConfig cfg;
  cfg.workers = 2;
  cfg.max_sessions = 2;
  cfg.specializer.jobs = 2;
  cfg.adaptive = true;
  cfg.pipeline_observer = observer;
  return std::make_unique<server::SpecializationServer>(cfg);
}

struct EpochRecord {
  std::size_t index = 0;
  double ms = 0.0;
  std::shared_ptr<const jx::vm::Profile> window;
  std::vector<std::uint64_t> installed;  // before this epoch
  bool respec = false;
  // The epoch's specialization ticket, if any.
  bool has_ticket = false;
  server::RequestState state = server::RequestState::Queued;
  std::string reason;
  OpDigest digest;
  std::uint64_t output_key = 0;
  std::uint64_t cad_used = 0;
  double queue_ms = 0.0, run_ms = 0.0, submit_us = 0.0;
};

struct Leg {
  std::vector<EpochRecord> epochs;
  double wall_ms = 0.0;
  server::ServerStats stats;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
};

/// Runs epochs until `seconds` elapse (or exactly `count` with count > 0)
/// against `srv`.
Leg run_leg(server::SpecializationServer& srv, jx::vm::Machine& machine,
            const Rotor& rotor, const std::vector<Epoch>& plan,
            double seconds, std::size_t count, Tracer* tracer,
            OutputVerifier& verifier, LayerCounts* counts) {
  Leg leg;
  std::vector<std::uint64_t> installed;
  Stopwatch wall;
  for (std::size_t e = 0; e < plan.size(); ++e) {
    if (count > 0 ? e >= count : (e > 0 && wall.s() >= seconds)) break;
    EpochRecord rec;
    rec.index = e;
    rec.installed = installed;
    Tracer::Scope op_span(tracer, "op.epoch", e);
    Stopwatch latency;
    {
      Tracer::Scope span(tracer, "vm.run", e);
      rec.window = run_epoch(machine, plan[e]);
    }
    if (counts != nullptr) counts->vm_instructions += rec.window->dyn_instructions;
    server::WindowObservation obs;
    {
      Tracer::Scope span(tracer, "server.observe_window", e);
      obs = srv.observe_window("rotor", rotor.module, rec.window);
    }
    server::Ticket ticket;
    if (e == 0) {
      server::SpecializationRequest req;
      req.tenant = "rotor";
      req.module = rotor.module;
      req.profile = rec.window;
      Tracer::Scope span(tracer, "server.submit", e);
      Stopwatch submit;
      ticket = srv.submit(std::move(req));
      rec.submit_us = submit.ms() * 1e3;
    } else if (obs.decision.action == jx::adaptive::DriftAction::Respecialize &&
               obs.ticket) {
      ticket = *obs.ticket;
    }
    rec.respec = ticket.valid();
    if (ticket.valid()) {
      const double waited_us = tracer ? tracer->now_us() : 0.0;
      Tracer::Scope span(tracer, "server.wait", e);
      const server::RequestOutcome& out = ticket.wait();
      if (tracer != nullptr)
        record_server_split(*tracer, e, waited_us - rec.submit_us, out);
      rec.has_ticket = true;
      rec.state = out.state;
      rec.reason = out.reason;
      rec.queue_ms = out.queue_ms;
      rec.run_ms = out.run_ms;
      if (out.state == server::RequestState::Done && out.result) {
        installed.clear();
        for (const auto& impl : out.result->implemented)
          installed.push_back(impl.signature);
        rec.digest = OpDigest::of(*out.result);
        rec.cad_used = cad_results_used(*out.result);
        rec.output_key = verifier.add(rotor.module.get(), &rotor.refs,
                                      *out.result);
      }
    }
    rec.ms = latency.ms();
    leg.epochs.push_back(std::move(rec));
  }
  leg.wall_ms = wall.ms();
  leg.stats = srv.stats();
  leg.cache_hits = srv.cache().hits();
  leg.cache_misses = srv.cache().misses();
  leg.cache_evictions = srv.cache().evictions();
  return leg;
}

struct DriftState {
  Rotor rotor;
  std::unique_ptr<server::SpecializationServer> srv;
  std::unique_ptr<jx::vm::Machine> machine;
};

}  // namespace

WorkloadResult run_drift_rotor(const Options& opt) {
  WorkloadResult out;
  const PinnedDigests pinned = PinnedDigests::load(opt.digests);
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>();
  LayerCounts counts;
  CadCounter cad;

  DriftState st = repeat_setup<DriftState>(opt, out, [&] {
    DriftState s;
    s.rotor = build_rotor();
    s.srv = drift_server(opt.trace ? &cad : nullptr);
    s.machine = windowed_machine(*s.rotor.module);
    return s;
  });
  const Rotor& rotor = st.rotor;
  const std::vector<Epoch> plan = build_schedule(opt.seed, rotor.kernels);
  Mix sched;
  for (const Epoch& ep : plan) {
    sched.add(ep.kernel);
    sched.add(static_cast<std::uint64_t>(ep.n));
  }
  out.schedule_hash = sched.h;

  OutputVerifier verifier;
  Leg leg;
  if (!opt.trace) {
    leg = run_leg(*st.srv, *st.machine, rotor, plan, opt.seconds,
                  opt.tiny ? kTinyEpochs : 0, nullptr, verifier, nullptr);
    out.timed_s = leg.wall_ms / 1e3;
  } else {
    // The same epochs untraced, then traced, each on a fresh server and
    // machine so both see identical drift decisions.
    const std::size_t n = opt.tiny ? kTinyEpochs : kTracedEpochs;
    counts.untraced_ms =
        run_leg(*st.srv, *st.machine, rotor, plan, 0.0, n, nullptr, verifier,
                nullptr)
            .wall_ms;
    st.srv = drift_server(&cad);
    st.machine = windowed_machine(*rotor.module);
    cad.reset();
    leg = run_leg(*st.srv, *st.machine, rotor, plan, 0.0, n, tracer.get(),
                  verifier, &counts);
    counts.traced_ms = leg.wall_ms;
    cad.report(counts);
    counts.cache_hits = leg.cache_hits;
    counts.cache_misses = leg.cache_misses;
    counts.cache_evictions = leg.cache_evictions;
    counts.rejected = leg.stats.admission_rejections;
    counts.coalesced = leg.stats.coalesced_submits;
    counts.steals = leg.stats.executor.steals;
    counts.occupancy_hw = leg.stats.executor.occupancy_high_water;
    counts.phase_changes = leg.stats.phase_changes;
    counts.drift_respecs = leg.stats.drift_respecializations;
    counts.estimate_hits = leg.stats.estimate_hits;
    counts.estimate_misses = leg.stats.estimate_misses;
    for (const EpochRecord& r : leg.epochs) {
      if (!r.has_ticket) continue;
      counts.cad_used += r.cad_used;
      counts.queue_ms.push_back(r.queue_ms);
      counts.run_ms.push_back(r.run_ms);
      if (r.index == 0) counts.submit_us.push_back(r.submit_us);
    }
  }

  // Checks and modeled accounting, outside the timed region. Every
  // specialization is compared with the reference specializer (jobs=1) on
  // the same input: selection, hardware cycles, CAD failures and predicted
  // speedup must agree, and each candidate's hardware cycles and modeled
  // CAD seconds must equal the pinned values.
  verifier.verify();
  const jx::jit::SpecializerConfig ref_cfg = serial_config();
  jx::jit::BitstreamCache ref_cache;
  jx::estimation::EstimateCache ref_est;
  jx::hwlib::CircuitDb price_db;
  jx::estimation::EstimateCache price_est;
  const jx::jit::SpecializerConfig pricing;
  double base = 0.0, net = 0.0;
  Mix digests;
  for (const EpochRecord& r : leg.epochs) {
    ++out.attempted;
    out.op_ms.push_back(r.ms);
    if (r.index < kAccountEpochs) {
      const double window_base = static_cast<double>(r.window->cpu_cycles);
      const double saved =
          jx::adaptive::evaluate_window_benefit(*rotor.module, *r.window,
                                                r.installed, pricing,
                                                price_db, &price_est)
              .installed_saving;
      base += window_base;
      net += window_base - saved + (r.respec ? kRespecCostCycles : 0.0);
    }
    if (!r.has_ticket) continue;
    const std::string what =
        "epoch " + std::to_string(r.index) + " (" +
        rotor.kernels[plan[r.index].kernel].name + ")";
    if (r.state != server::RequestState::Done) {
      out.fail(what + ": ticket " + server::state_name(r.state) + " " +
               r.reason);
      continue;
    }
    digests.add(r.digest.hash());
    const OpDigest ref = OpDigest::of(jx::jit::specialize(
        *rotor.module, *r.window, ref_cfg, &ref_cache, &ref_est));
    if (tracer) {
      // Decomposed replay of the same input for the per-layer spans.
      (void)replay_specialize(*rotor.module, *r.window, ref_cfg, nullptr,
                              nullptr, tracer.get(), 1000000000ull + r.index,
                              counts.replay);
    }
    std::string why = pinned.check_candidates(r.digest);
    if (why.empty() && (r.digest.signatures != ref.signatures ||
                        r.digest.hw_cycles != ref.hw_cycles ||
                        r.digest.candidates_failed != ref.candidates_failed ||
                        r.digest.predicted_speedup != ref.predicted_speedup))
      why = "result differs from the reference specializer";
    if (why.empty() && !verifier.passed(r.output_key))
      why = "adapted output differs on a ref data set";
    if (!why.empty()) out.fail(what + ": " + why);
  }
  out.digest_hash = digests.h;
  out.modeled_speedup = net > 0.0 ? base / net : 1.0;
  out.notes.push_back(
      "epochs " + std::to_string(leg.epochs.size()) + ", phase changes " +
      std::to_string(leg.stats.phase_changes) + ", drift re-specializations " +
      std::to_string(leg.stats.drift_respecializations) + ", evictions " +
      std::to_string(leg.stats.drift_evictions) + ", rejected " +
      std::to_string(leg.stats.admission_rejections) +
      ", distinct adapted binaries " + std::to_string(verifier.distinct()));
  if (tracer) {
    if (counts.replay.routing_problems != 0)
      out.fail("fpga::validate_routing reported problems in the replay");
    out.layers = layer_metrics(*tracer, counts);
    if (!opt.trace_out.empty() && !tracer->write_json(opt.trace_out))
      out.notes.push_back("could not write " + opt.trace_out);
  }
  return out;
}

void pin_rotor_digests(PinnedDigests& pinned) {
  const Rotor rotor = build_rotor();
  const jx::jit::SpecializerConfig cfg = serial_config();
  jx::jit::BitstreamCache cache;
  jx::estimation::EstimateCache estimates;
  constexpr int kSamples = 17;  // points across each kernel's jitter range
  for (std::size_t k = 0; k < rotor.kernels.size(); ++k) {
    const std::int64_t base = rotor.kernels[k].train_n;
    std::set<std::vector<std::uint64_t>> selections;
    std::set<std::int64_t> ns;
    for (int i = 0; i < kSamples; ++i)
      ns.insert(std::max<std::int64_t>(
          1, base - base / 16 + (base / 8) * i / (kSamples - 1)));
    for (std::int64_t n : ns) {
      auto machine = windowed_machine(*rotor.module);
      const auto window = run_epoch(*machine, Epoch{k, n});
      const OpDigest d = OpDigest::of(
          jx::jit::specialize(*rotor.module, *window, cfg, &cache, &estimates));
      pinned.pin_candidates(d);
      selections.insert(d.signatures);
    }
    std::printf("pinned rotor %-6s %zu train sizes, %zu distinct selections\n",
                rotor.kernels[k].name.c_str(), ns.size(), selections.size());
  }
}

}  // namespace perfbench
