#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {
namespace {

// Innermost-last stack of the calling thread's open spans (parent links).
thread_local std::vector<std::int64_t> t_open;

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t op)
    : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->open(name, op);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::int64_t Tracer::open(const char* name, std::uint64_t op) {
  const double start = now_us();
  const std::int64_t index = append(name, op, start, start);
  t_open.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const double end = now_us();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_us = end;
}

void Tracer::record(const char* name, std::uint64_t op, double start_us,
                    double end_us) {
  append(name, op, start_us, end_us);
}

std::int64_t Tracer::append(const char* name, std::uint64_t op,
                            double start_us, double end_us) {
  const std::uint64_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, _] = thread_ids_.emplace(
      tid, static_cast<std::uint32_t>(thread_ids_.size()));
  Span s;
  s.name = name;
  s.op = op;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.thread = it->second;
  s.start_us = start_us;
  s.end_us = end_us;
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, Tracer::LayerTime> Tracer::self_times() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].parent >= 0)
      children[static_cast<std::size_t>(all[i].parent)].push_back(i);

  std::map<std::string, LayerTime> out;
  std::vector<std::pair<double, double>> covered;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    covered.clear();
    for (std::size_t c : children[i]) {
      const double a = std::max(all[c].start_us, s.start_us);
      const double b = std::min(all[c].end_us, s.end_us);
      if (b > a) covered.emplace_back(a, b);
    }
    std::sort(covered.begin(), covered.end());
    double child_us = 0.0, reach = s.start_us;
    for (const auto& [a, b] : covered) {
      const double from = std::max(a, reach);
      if (b > from) child_us += b - from;
      reach = std::max(reach, b);
    }
    const double dur = s.end_us - s.start_us;
    LayerTime& lt = out[s.name];
    lt.total_ms += dur / 1e3;
    lt.self_ms += (dur - child_us) / 1e3;
    ++lt.spans;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                 "\"span\":%zu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, s.thread, s.start_us,
                 s.end_us - s.start_us, static_cast<unsigned long long>(s.op),
                 i, static_cast<long long>(s.parent));
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
