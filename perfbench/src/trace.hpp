// In-memory span recorder for the traced benchmark run.
//
// Spans wrap the benchmark's own calls into each jitise layer's public
// function: name, start, end, parent span and the op they belong to. They
// stay in memory while the workload runs and are written out as trace-event
// JSON at exit. Per-layer self time is a span's duration minus the part of
// it that its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t op = 0;      // spans of one op share this id
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    std::uint32_t thread = 0;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  /// Aggregated self time of every span with one name.
  struct LayerTime {
    double self_ms = 0.0;
    double total_ms = 0.0;
    std::uint64_t spans = 0;
  };

  /// RAII span: opens on construction, closes on destruction. A null tracer
  /// makes it a no-op, so traced and untraced code share one path.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
  };

  Tracer();

  /// Records a span measured elsewhere (e.g. the server's queue/run split
  /// of a request), as a child of the calling thread's innermost open span.
  void record(const char* name, std::uint64_t op, double start_us,
              double end_us);

  [[nodiscard]] double now_us() const;
  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::map<std::string, LayerTime> self_times() const;
  /// Writes Chrome trace-event JSON (one complete "X" event per span).
  bool write_json(const std::string& path) const;

 private:
  std::int64_t open(const char* name, std::uint64_t op);
  std::int64_t append(const char* name, std::uint64_t op, double start_us,
                      double end_us);
  void close(std::int64_t index);

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::map<std::uint64_t, std::uint32_t> thread_ids_;  // guarded by mu_
};

}  // namespace perfbench
