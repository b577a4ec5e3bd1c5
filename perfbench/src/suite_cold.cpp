// suite_cold — every registered application through jit::specialize with
// jobs=1 and fresh caches, in seeded order, repeated in whole passes.
//
// Every candidate misses, so the CAD flow does nearly all the work and the
// cache insert path runs. Caches are fresh per op (not per pass) so an op's
// cost does not depend on which applications the seeded order put before
// it. A placement or routing change shows here; a search or server change
// should not.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "jit/specializer.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Whole-pass schedules are generated up front; no run gets near this many.
constexpr std::size_t kMaxPasses = 64;
/// A run measures round(--seconds / kPassSeconds) whole passes (a pass
/// takes 6-10 s on a 4-core Xeon VM). A fixed pass count keeps the op
/// multiset, and with it the percentile the tail metric lands on,
/// independent of how fast the machine happens to run.
constexpr double kPassSeconds = 10.0;

std::vector<std::vector<std::size_t>> build_schedule(std::uint64_t seed,
                                                     std::size_t apps) {
  jx::support::Xoshiro256 rng(seed);
  std::vector<std::vector<std::size_t>> passes(kMaxPasses);
  for (auto& order : passes) order = permutation(apps, rng);
  return passes;
}

struct OpRecord {
  std::size_t app = 0;
  double ms = 0.0;
  OpDigest digest;
  std::uint64_t output_key = 0;
};

}  // namespace

std::vector<std::string> suite_names(bool tiny) {
  if (tiny) return {"adpcm", "fft", "hash_lookup"};
  return jx::apps::app_names();
}

std::vector<AppInput> build_inputs(const std::vector<std::string>& names,
                                   Tracer* tracer, LayerCounts* counts) {
  std::vector<AppInput> inputs;
  inputs.reserve(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    AppInput in;
    in.app = jx::apps::build_app(names[i]);
    {
      jx::vm::Machine machine(in.app.module);
      Tracer::Scope span(tracer, "vm.run", i);
      machine.run(in.app.entry, in.app.datasets.at(0).args, 1ull << 30);
      in.profile = std::make_shared<const jx::vm::Profile>(machine.profile());
    }
    if (counts != nullptr) counts->vm_instructions += in.profile->dyn_instructions;
    in.refs.push_back(RefRun{in.app.entry, in.app.datasets.at(1).args});
    inputs.push_back(std::move(in));
  }
  return inputs;
}

WorkloadResult run_suite_cold(const Options& opt) {
  WorkloadResult out;
  const PinnedDigests pinned = PinnedDigests::load(opt.digests);
  const std::vector<std::string> names = suite_names(opt.tiny);
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>();
  LayerCounts counts;

  const std::vector<AppInput> inputs =
      repeat_setup<std::vector<AppInput>>(opt, out, [&] {
        return build_inputs(names, tracer.get(), &counts);
      });
  const auto schedule = build_schedule(opt.seed, inputs.size());
  Mix sched;
  for (const auto& pass : schedule)
    for (std::size_t a : pass) sched.add(a);
  out.schedule_hash = sched.h;

  const jx::jit::SpecializerConfig cfg = serial_config();
  OutputVerifier verifier;
  std::vector<OpRecord> ops;
  std::vector<double> speedups;

  if (!opt.trace) {
    const std::size_t passes =
        opt.tiny ? 1
                 : std::clamp<std::size_t>(
                       static_cast<std::size_t>(
                           std::lround(opt.seconds / kPassSeconds)),
                       1, kMaxPasses);
    Stopwatch timed;
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (std::size_t a : schedule[pass]) {
        const AppInput& in = inputs[a];
        Stopwatch op;
        jx::jit::BitstreamCache cache;
        jx::estimation::EstimateCache estimates;
        const jx::jit::SpecializationResult r = jx::jit::specialize(
            in.app.module, *in.profile, cfg, &cache, &estimates);
        const double ms = op.ms();
        ops.push_back(OpRecord{a, ms, OpDigest::of(r),
                               verifier.add(&in.app.module, &in.refs, r)});
      }
    }
    out.timed_s = timed.s();
  } else {
    // Traced run: one pass; each app is specialized by jit::specialize
    // (untraced reference) and by the decomposed replay (traced), which
    // must agree bit for bit.
    ReplayCounters& rc = counts.replay;
    for (std::size_t a : schedule[0]) {
      const AppInput& in = inputs[a];
      const std::uint64_t op_id = ops.size();
      jx::jit::BitstreamCache ref_cache;
      jx::estimation::EstimateCache ref_est;
      Stopwatch ref_sw;
      jx::jit::SpecializationResult ref;
      {
        Tracer::Scope span(tracer.get(), "jit.specialize", op_id);
        ref = jx::jit::specialize(in.app.module, *in.profile, cfg, &ref_cache,
                                  &ref_est);
      }
      const double ref_ms = ref_sw.ms();
      counts.untraced_ms += ref_ms;

      jx::jit::BitstreamCache cache;
      jx::estimation::EstimateCache estimates;
      const std::uint64_t problems_before = rc.routing_problems;
      Stopwatch rep_sw;
      const ReplayResult rep =
          replay_specialize(in.app.module, *in.profile, cfg, &cache,
                            &estimates, tracer.get(), op_id, rc);
      counts.traced_ms += rep_sw.ms();

      const OpDigest ref_digest = OpDigest::of(ref);
      std::string why;
      if (ref_digest.hash() != rep.digest.hash())
        why = "decomposed replay digest differs from jit::specialize";
      else if (cached_crcs(ref_cache, ref_digest) != rep.crcs)
        why = "decomposed replay bitstream CRCs differ from jit::specialize";
      else if (rc.routing_problems != problems_before)
        why = "fpga::validate_routing reported problems";
      if (!why.empty()) out.fail(in.app.name + ": " + why);

      counts.estimate_hits += estimates.hits();
      counts.estimate_misses += estimates.misses();
      counts.cache_hits += cache.hits();
      counts.cache_misses += cache.misses();
      counts.cache_evictions += cache.evictions();
      ops.push_back(OpRecord{a, ref_ms, ref_digest,
                             verifier.add(&in.app.module, &in.refs, ref)});
    }
    // At jobs=1 every CAD chain is started for the final selection.
    counts.cad_dispatched = rc.cad_runs;
    counts.cad_used = rc.cad_runs;
    counts.cad_implemented = rc.cad_runs - rc.cad_failures;
    counts.cad_rejected = rc.cad_failures;
    counts.cad_hit_events = counts.cache_hits;
  }

  // Checks, outside the timed region.
  verifier.verify();
  Mix digests;
  for (const OpRecord& op : ops) {
    const std::string& app = inputs[op.app].app.name;
    ++out.attempted;
    out.op_ms.push_back(op.ms);
    speedups.push_back(op.digest.predicted_speedup);
    digests.add(op.digest.hash());
    std::string why = pinned.check(app, op.digest);
    if (why.empty() && !verifier.passed(op.output_key))
      why = app + ": adapted output differs on the ref data set";
    if (!why.empty()) out.fail(why);
  }
  out.digest_hash = digests.h;
  out.modeled_speedup = geomean(speedups);
  out.notes.push_back("apps " + std::to_string(inputs.size()) + ", passes " +
                      std::to_string(ops.size() / std::max<std::size_t>(
                                                      1, inputs.size())) +
                      ", distinct adapted binaries verified " +
                      std::to_string(verifier.distinct()));
  if (tracer) {
    out.layers = layer_metrics(*tracer, counts);
    if (!opt.trace_out.empty() && !tracer->write_json(opt.trace_out))
      out.notes.push_back("could not write " + opt.trace_out);
  }
  return out;
}

void pin_digests(const std::string& path) {
  PinnedDigests pinned;
  const jx::jit::SpecializerConfig cfg = serial_config();
  for (const AppInput& in : build_inputs(suite_names(false), nullptr, nullptr)) {
    jx::jit::BitstreamCache cache;
    jx::estimation::EstimateCache estimates;
    const auto r =
        jx::jit::specialize(in.app.module, *in.profile, cfg, &cache, &estimates);
    pinned.pin(in.app.name, OpDigest::of(r));
    std::printf("pinned %-16s %zu implemented\n", in.app.name.c_str(),
                r.implemented.size());
  }
  pin_rotor_digests(pinned);
  pinned.save(path);
}

}  // namespace perfbench
