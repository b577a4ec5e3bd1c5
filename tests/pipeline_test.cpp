// Suite-wide integration properties: for every benchmark application, the
// full hardware pipeline must be deterministic, cache-keyable and
// semantics-preserving on every data set.
#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/app.hpp"
#include "ir/verifier.hpp"
#include "ise/selection.hpp"
#include "jit/specializer.hpp"
#include "support/rng.hpp"
#include "woolcano/asip.hpp"

namespace {

using namespace jitise;

class Pipeline : public ::testing::TestWithParam<std::string> {
 protected:
  static vm::Profile profile_of(const apps::App& app) {
    vm::Machine machine(app.module);
    machine.run(app.entry, app.datasets[0].args, 1ull << 30);
    return machine.profile();
  }
};

INSTANTIATE_TEST_SUITE_P(AllApps, Pipeline,
                         ::testing::ValuesIn(apps::app_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '.') c = '_';
                           return n;
                         });

TEST_P(Pipeline, SpecializationIsDeterministic) {
  const apps::App app = apps::build_app(GetParam());
  const auto profile = profile_of(app);
  jit::SpecializerConfig config;
  const auto s1 = jit::specialize(app.module, profile, config);
  const auto s2 = jit::specialize(app.module, profile, config);
  ASSERT_EQ(s1.implemented.size(), s2.implemented.size());
  for (std::size_t i = 0; i < s1.implemented.size(); ++i) {
    EXPECT_EQ(s1.implemented[i].signature, s2.implemented[i].signature);
    EXPECT_EQ(s1.implemented[i].bitstream_bytes, s2.implemented[i].bitstream_bytes);
    EXPECT_EQ(s1.implemented[i].hw_cycles, s2.implemented[i].hw_cycles);
    EXPECT_DOUBLE_EQ(s1.implemented[i].total_seconds(),
                     s2.implemented[i].total_seconds());
  }
  EXPECT_DOUBLE_EQ(s1.sum_total_s, s2.sum_total_s);
  EXPECT_DOUBLE_EQ(s1.predicted_speedup, s2.predicted_speedup);
}

TEST_P(Pipeline, RewritePreservesSemanticsOnAllDatasets) {
  const apps::App app = apps::build_app(GetParam());
  const auto profile = profile_of(app);
  jit::SpecializerConfig config;
  const auto spec = jit::specialize(app.module, profile, config);
  ir::verify_module_or_throw(spec.rewritten);

  for (const apps::Dataset& ds : app.datasets) {
    const auto diff = woolcano::run_adapted(app.module, spec.rewritten,
                                            spec.registry, app.entry, ds.args);
    EXPECT_EQ(diff.original_result.i, diff.adapted_result.i)
        << GetParam() << " dataset " << ds.name;
    EXPECT_GE(diff.speedup(), 0.999) << "adaptation must never slow down";
  }
}

TEST_P(Pipeline, CacheRoundTripMatchesFreshImplementation) {
  const apps::App app = apps::build_app(GetParam());
  const auto profile = profile_of(app);
  jit::BitstreamCache cache;
  jit::SpecializerConfig config;
  const auto fresh = jit::specialize(app.module, profile, config, &cache);
  const auto cached = jit::specialize(app.module, profile, config, &cache);
  ASSERT_EQ(fresh.implemented.size(), cached.implemented.size());
  for (std::size_t i = 0; i < fresh.implemented.size(); ++i) {
    EXPECT_TRUE(cached.implemented[i].cache_hit);
    EXPECT_EQ(cached.implemented[i].hw_cycles, fresh.implemented[i].hw_cycles);
  }
  // The cached hardware must behave identically on the reference data set.
  const auto d1 = woolcano::run_adapted(app.module, fresh.rewritten,
                                        fresh.registry, app.entry,
                                        app.datasets[1].args);
  const auto d2 = woolcano::run_adapted(app.module, cached.rewritten,
                                        cached.registry, app.entry,
                                        app.datasets[1].args);
  EXPECT_EQ(d1.adapted_result.i, d2.adapted_result.i);
  EXPECT_EQ(d1.adapted_cycles, d2.adapted_cycles);
}

TEST_P(Pipeline, ParallelSearchMatchesSerialSearch) {
  // Differential check per app: a wide `jobs` budget must leave the whole
  // pipeline — candidate search, serial by design, and the per-candidate CAD
  // fan-out — bit-identical to jobs=1. The worker count follows JITISE_JOBS
  // so the CI matrix can sweep it.
  const apps::App app = apps::build_app(GetParam());
  const auto profile = profile_of(app);

  unsigned workers = 4;
  if (const char* env = std::getenv("JITISE_JOBS")) {
    const unsigned long parsed = std::strtoul(env, nullptr, 10);
    if (parsed > 0) workers = static_cast<unsigned>(parsed);
  }

  jit::SpecializerConfig serial_cfg;
  serial_cfg.jobs = 1;
  jit::SpecializerConfig parallel_cfg = serial_cfg;
  parallel_cfg.jobs = workers;

  const auto serial = jit::specialize(app.module, profile, serial_cfg);
  const auto parallel = jit::specialize(app.module, profile, parallel_cfg);
  EXPECT_EQ(serial.candidates_found, parallel.candidates_found);
  EXPECT_EQ(serial.candidates_selected, parallel.candidates_selected);
  EXPECT_EQ(serial.candidates_failed, parallel.candidates_failed);
  EXPECT_DOUBLE_EQ(serial.predicted_speedup, parallel.predicted_speedup);
  EXPECT_DOUBLE_EQ(serial.sum_total_s, parallel.sum_total_s);
  ASSERT_EQ(serial.implemented.size(), parallel.implemented.size());
  for (std::size_t i = 0; i < serial.implemented.size(); ++i) {
    EXPECT_EQ(serial.implemented[i].name, parallel.implemented[i].name);
    EXPECT_EQ(serial.implemented[i].signature,
              parallel.implemented[i].signature);
    EXPECT_EQ(serial.implemented[i].hw_cycles,
              parallel.implemented[i].hw_cycles);
    EXPECT_EQ(serial.implemented[i].bitstream_bytes,
              parallel.implemented[i].bitstream_bytes);
    EXPECT_DOUBLE_EQ(serial.implemented[i].area_slices,
                     parallel.implemented[i].area_slices);
    EXPECT_DOUBLE_EQ(serial.implemented[i].total_seconds(),
                     parallel.implemented[i].total_seconds());
  }
}

TEST_P(Pipeline, EstimateCacheIsBitIdenticalAndHitsOnReuse) {
  // Differential check per app: whole-candidate estimation memoized by
  // candidate signature must be invisible in the output — estimates are pure
  // functions of candidate structure, so the memo can only change *when*
  // they are computed, never their values.
  const apps::App app = apps::build_app(GetParam());
  const auto profile = profile_of(app);
  jit::SpecializerConfig config;

  const auto plain = jit::specialize(app.module, profile, config);
  estimation::EstimateCache estimates;
  const auto memoized = jit::specialize(app.module, profile, config,
                                        /*cache=*/nullptr, &estimates);

  EXPECT_EQ(plain.candidates_found, memoized.candidates_found);
  EXPECT_EQ(plain.candidates_selected, memoized.candidates_selected);
  EXPECT_DOUBLE_EQ(plain.predicted_speedup, memoized.predicted_speedup);
  ASSERT_EQ(plain.implemented.size(), memoized.implemented.size());
  for (std::size_t i = 0; i < plain.implemented.size(); ++i) {
    EXPECT_EQ(plain.implemented[i].name, memoized.implemented[i].name);
    EXPECT_EQ(plain.implemented[i].signature, memoized.implemented[i].signature);
    EXPECT_EQ(plain.implemented[i].hw_cycles, memoized.implemented[i].hw_cycles);
    EXPECT_DOUBLE_EQ(plain.implemented[i].area_slices,
                     memoized.implemented[i].area_slices);
  }
  EXPECT_DOUBLE_EQ(plain.sum_total_s, memoized.sum_total_s);

  // First run populated the memo (one entry per distinct signature); a
  // second run over the same module hits for every candidate and still
  // produces the identical result.
  EXPECT_GT(estimates.entries(), 0u);
  const std::uint64_t misses_before = estimates.misses();
  const auto warm = jit::specialize(app.module, profile, config,
                                    /*cache=*/nullptr, &estimates);
  EXPECT_EQ(estimates.misses(), misses_before);
  EXPECT_GT(estimates.hits(), 0u);
  ASSERT_EQ(warm.implemented.size(), plain.implemented.size());
  for (std::size_t i = 0; i < plain.implemented.size(); ++i)
    EXPECT_EQ(warm.implemented[i].signature, plain.implemented[i].signature);
  EXPECT_DOUBLE_EQ(warm.predicted_speedup, plain.predicted_speedup);
}

// --- greedy selection against the exhaustive optimum ---------------------

class SelectionProperty : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SelectionProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST_P(SelectionProperty, GreedyFeasibleAndBoundedByExhaustiveOptimum) {
  support::Xoshiro256 rng(GetParam());
  std::vector<ise::ScoredCandidate> cands(8 + rng.below(12));
  for (auto& sc : cands) {
    sc.cycles_saved_total = 1.0 + static_cast<double>(rng.below(1000));
    sc.area_slices = 1.0 + static_cast<double>(rng.below(400));
    sc.candidate.outputs.push_back(0);
  }
  ise::SelectConfig config;
  config.area_budget_slices = 300 + static_cast<double>(rng.below(700));

  const auto greedy = ise::select_greedy(cands, config);
  EXPECT_LE(greedy.total_area, config.area_budget_slices);
  EXPECT_LE(greedy.chosen.size(), config.max_instructions);

  // Exhaustive oracle for small instances.
  if (cands.size() <= 14) {
    double best = 0.0;
    for (std::uint32_t mask = 0; mask < (1u << cands.size()); ++mask) {
      double area = 0.0, saving = 0.0;
      for (std::size_t i = 0; i < cands.size(); ++i)
        if (mask & (1u << i)) {
          area += cands[i].area_slices;
          saving += cands[i].cycles_saved_total;
        }
      if (area <= config.area_budget_slices &&
          __builtin_popcount(mask) <=
              static_cast<int>(config.max_instructions))
        best = std::max(best, saving);
    }
    EXPECT_LE(greedy.total_saving, best + best * 1e-12 + 1e-9)
        << "greedy can never beat the exhaustive optimum";
  }
}

}  // namespace
