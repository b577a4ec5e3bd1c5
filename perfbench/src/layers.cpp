#include "layers.hpp"

#include <cstdio>
#include <string>

namespace perfbench {
namespace {

std::string base(std::uint64_t num, std::uint64_t den) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%llu/%llu",
                static_cast<unsigned long long>(num),
                static_cast<unsigned long long>(den));
  return buf;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

Metric count(const char* name, std::uint64_t v) {
  return Metric{name, static_cast<double>(v), "count", ""};
}

Metric p50(const char* name, const std::vector<double>& v, const char* unit) {
  return Metric{name, median(v), unit, "n=" + std::to_string(v.size())};
}

Metric tail(const char* name, const std::vector<double>& v) {
  const Tail t = tail_of(v);
  return Metric{name, t.value, "ms", describe(t)};
}

}  // namespace

std::vector<Metric> layer_metrics(const Tracer& tracer,
                                  const LayerCounts& c) {
  const auto times = tracer.self_times();
  const auto self_ms = [&times](const char* span) {
    const auto it = times.find(span);
    return it == times.end() ? 0.0 : it->second.self_ms;
  };
  const auto ms = [&](const char* name, const char* span) {
    const auto it = times.find(span);
    const std::uint64_t n = it == times.end() ? 0 : it->second.spans;
    return Metric{name, self_ms(span), "ms", std::to_string(n) + " spans"};
  };

  std::vector<Metric> m;
  // fpga
  m.push_back(ms("fpga.synthesize.ms", "fpga.synthesize"));
  m.push_back(ms("fpga.place.ms", "fpga.place"));
  m.push_back(ms("fpga.route.ms", "fpga.route"));
  m.push_back(count("fpga.route.iterations", c.replay.route_iterations));
  m.push_back(ms("fpga.sta.ms", "fpga.sta"));
  m.push_back(ms("fpga.bitgen.ms", "fpga.bitgen"));
  // cad
  m.push_back(ms("cad.syntax.ms", "cad.syntax"));
  m.push_back(ms("cad.implement.ms", "cad.implement"));
  m.push_back(count("cad.failures", c.replay.cad_failures));
  // datapath
  m.push_back(ms("datapath.create_project.ms", "datapath.create_project"));
  // ise / dfg / estimation
  m.push_back(ms("ise.prune.ms", "ise.prune"));
  m.push_back(ms("dfg.build.ms", "dfg.build"));
  m.push_back(ms("ise.identify.ms", "ise.identify"));
  m.push_back(count("ise.identify.candidates", c.replay.candidates_found));
  m.push_back(ms("estimation.estimate.ms", "estimation.estimate"));
  m.push_back(Metric{"estimation.cache.hit_ratio",
                     ratio(c.estimate_hits, c.estimate_hits + c.estimate_misses),
                     "ratio",
                     base(c.estimate_hits, c.estimate_hits + c.estimate_misses)});
  m.push_back(ms("ise.select.ms", "ise.select"));
  m.push_back(Metric{"ise.select.selected_ratio",
                     ratio(c.replay.candidates_selected, c.replay.candidates_found), "ratio",
                     base(c.replay.candidates_selected, c.replay.candidates_found)});
  // woolcano
  m.push_back(ms("woolcano.rewrite.ms", "woolcano.rewrite"));
  // jit
  m.push_back(ms("jit.specialize.ms", "jit.specialize"));
  m.push_back(Metric{"jit.cache.hit_ratio",
                     ratio(c.cache_hits, c.cache_hits + c.cache_misses),
                     "ratio", base(c.cache_hits, c.cache_hits + c.cache_misses)});
  m.push_back(count("jit.cache.misses", c.cache_misses));
  m.push_back(count("jit.cache.evictions", c.cache_evictions));
  char cad_note[160];
  std::snprintf(cad_note, sizeof cad_note,
                "%llu speculative; hooks: %llu implemented, %llu rejected, "
                "%llu cache hits",
                static_cast<unsigned long long>(c.cad_speculative),
                static_cast<unsigned long long>(c.cad_implemented),
                static_cast<unsigned long long>(c.cad_rejected),
                static_cast<unsigned long long>(c.cad_hit_events));
  m.push_back(Metric{"jit.cad.dispatched", static_cast<double>(c.cad_dispatched),
                     "count", cad_note});
  m.push_back(Metric{"jit.cad.useful_ratio",
                     ratio(c.cad_used, c.cad_dispatched), "ratio",
                     base(c.cad_used, c.cad_dispatched) + " used/started"});
  // server / executor
  m.push_back(Metric{"server.submit.us", median(c.submit_us), "us",
                     "p50 of n=" + std::to_string(c.submit_us.size())});
  m.push_back(p50("server.queue_ms.p50", c.queue_ms, "ms"));
  m.push_back(tail("server.queue_ms.tail", c.queue_ms));
  m.push_back(p50("server.run_ms.p50", c.run_ms, "ms"));
  m.push_back(tail("server.run_ms.tail", c.run_ms));
  m.push_back(count("server.rejected", c.rejected));
  m.push_back(count("server.coalesced", c.coalesced));
  m.push_back(count("executor.steals", c.steals));
  m.push_back(count("executor.occupancy_hw", c.occupancy_hw));
  // vm
  const double vm_ms = self_ms("vm.run");
  m.push_back(ms("vm.run.ms", "vm.run"));
  m.push_back(count("vm.instructions", c.vm_instructions));
  m.push_back(Metric{"vm.minstr_per_s",
                     vm_ms > 0.0 ? static_cast<double>(c.vm_instructions) /
                                       (vm_ms * 1e3)
                                 : 0.0,
                     "Minstr/s", ""});
  // adaptive
  m.push_back(ms("server.observe_window.ms", "server.observe_window"));
  m.push_back(count("adaptive.phase_changes", c.phase_changes));
  m.push_back(count("adaptive.drift_respecs", c.drift_respecs));
  // tracing overhead
  char note[96];
  std::snprintf(note, sizeof note, "traced %.1f ms vs untraced %.1f ms (%+.2f%%)",
                c.traced_ms, c.untraced_ms,
                c.untraced_ms > 0.0
                    ? 100.0 * (c.traced_ms - c.untraced_ms) / c.untraced_ms
                    : 0.0);
  m.push_back(Metric{"trace.overhead.ms", c.traced_ms - c.untraced_ms, "ms",
                     note});
  return m;
}

}  // namespace perfbench
