#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

/// Regularized incomplete beta function I_x(a, b), by the continued
/// fraction of Numerical Recipes (modified Lentz).
double incomplete_beta(double x, double a, double b) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  if (x > (a + 1.0) / (a + b + 2.0))
    return 1.0 - incomplete_beta(1.0 - x, b, a);
  constexpr double kTiny = 1e-300;
  const double front =
      std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
               a * std::log(x) + b * std::log1p(-x)) / a;
  double c = 1.0, d = 1.0 - (a + b) * x / (a + 1.0);
  d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
  double f = d;
  for (int m = 1; m <= 300; ++m) {
    for (int odd = 0; odd < 2; ++odd) {
      const double num =
          odd == 0
              ? m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
              : -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1));
      d = 1.0 + num * d;
      d = 1.0 / (std::fabs(d) < kTiny ? kTiny : d);
      c = 1.0 + num / c;
      if (std::fabs(c) < kTiny) c = kTiny;
      f *= c * d;
    }
    if (std::fabs(c * d - 1.0) < 1e-15) break;
  }
  return front * f;
}

}  // namespace

double quantile_hd(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 1) return v[0];
  const double a = p * static_cast<double>(n + 1);
  const double b = (1.0 - p) * static_cast<double>(n + 1);
  double sum = 0.0, lo = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double hi = incomplete_beta(
        static_cast<double>(i + 1) / static_cast<double>(n), a, b);
    sum += (hi - lo) * v[i];
    lo = hi;
  }
  return sum;
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Nearest rank i (0-based) has n-1-i samples beyond it; the highest rank
  // with at least 10 beyond is n-11. Fewer samples fall back to the maximum.
  const std::size_t i = n > 10 ? n - 11 : n - 1;
  t.beyond = n - 1 - i;
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  t.value = n > 10 ? quantile_hd(std::move(v), t.percentile / 100.0) : v[i];
  return t;
}

std::string describe(const Tail& t) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%sp%.2f of n=%zu, %zu beyond",
                t.beyond > 0 ? "Harrell-Davis " : "", t.percentile, t.samples,
                t.beyond);
  return buf;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 1.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Mix::add_double(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  add(bits);
}

void Mix::add_string(const std::string& s) {
  add(s.size());
  for (unsigned char c : s) add(c);
}

}  // namespace perfbench
