#include "jit/observer.hpp"

#include <thread>

namespace jitise::jit {

const char* phase_name(PipelinePhase phase) noexcept {
  switch (phase) {
    case PipelinePhase::CandidateSearch: return "candidate-search";
    case PipelinePhase::Implementation: return "implementation";
    case PipelinePhase::Adaptation: return "adaptation";
  }
  return "?";
}

void TraceObserver::on_phase_exit(PipelinePhase phase, double real_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_, "[asip-sp] phase %s: %.3f real-ms\n", phase_name(phase),
               real_ms);
}

void TraceObserver::on_block_searched(std::size_t block,
                                      std::size_t candidates, double real_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_, "[asip-sp] block %zu: %zu candidates in %.3f real-ms\n",
               block, candidates, real_ms);
}

void TraceObserver::on_candidate_implemented(
    const std::string& name, std::uint64_t /*sig*/,
    const cad::ImplementationResult& hw) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_,
               "[asip-sp] %s: syn %.3f xst %.3f tra %.3f map %.3f par %.3f "
               "bitgen %.3f real-ms (modeled %.1f s) thread %zu\n",
               name.c_str(), hw.syn.real_ms, hw.xst.real_ms, hw.tra.real_ms,
               hw.map.real_ms, hw.par.real_ms, hw.bitgen.real_ms,
               hw.total_modeled_seconds(),
               std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

void TraceObserver::on_candidate_failed(const std::string& name,
                                        std::uint64_t /*sig*/) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_, "[asip-sp] %s: rejected by the tool flow (fit/route)\n",
               name.c_str());
}

void TraceObserver::on_cache_journal_sync(std::size_t flushed,
                                          bool compacted) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(sink_, "[asip-sp] cache journal: %zu records flushed%s\n",
               flushed, compacted ? ", journal compacted" : "");
}

}  // namespace jitise::jit
