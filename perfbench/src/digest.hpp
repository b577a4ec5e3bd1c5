// Correctness oracles of the benchmark.
//
//  - Modeled digests: every simulated statistic of a specialization result
//    (implemented signatures in order, their hardware cycles and modeled
//    CAD seconds, CAD failures, predicted speedup) is compared bit for bit
//    with values pinned in the benchmark's data file.
//  - Output equality: the adapted binary must compute what the unmodified
//    module computes on the application's second (ref) data set, checked
//    with woolcano::run_adapted outside the timed region.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "ir/module.hpp"
#include "jit/specializer.hpp"
#include "vm/interpreter.hpp"

namespace perfbench {

/// The modeled outcome of one specialization.
struct OpDigest {
  std::vector<std::uint64_t> signatures;  // implemented, in selection order
  std::vector<std::uint32_t> hw_cycles;
  std::vector<double> cad_seconds;  // modeled tool-flow seconds, 0 on a hit
  std::vector<bool> cache_hit;
  std::size_t candidates_failed = 0;
  double predicted_speedup = 1.0;

  [[nodiscard]] static OpDigest of(const jx::jit::SpecializationResult& result);
  /// Order-sensitive hash over every field (for the determinism self-check).
  [[nodiscard]] std::uint64_t hash() const;
};

/// Digests pinned per input (an application name, or a rotor phase) and per
/// candidate signature (hardware cycles and modeled CAD seconds, which
/// depend only on the candidate's structure).
class PinnedDigests {
 public:
  /// Throws std::runtime_error when the file is missing or malformed.
  [[nodiscard]] static PinnedDigests load(const std::string& path);
  void save(const std::string& path) const;

  /// Records `d` as the expected outcome of `input` (and its candidates).
  void pin(const std::string& input, const OpDigest& d);
  /// Records only the per-candidate values of `d`.
  void pin_candidates(const OpDigest& d);

  /// Empty when `d` matches the pinned outcome of `input`, else the first
  /// mismatch.
  [[nodiscard]] std::string check(const std::string& input,
                                  const OpDigest& d) const;
  /// Like check() but only the per-candidate values (for inputs whose
  /// selection is checked against a reference run instead).
  [[nodiscard]] std::string check_candidates(const OpDigest& d) const;

 private:
  struct Input {
    std::vector<std::uint64_t> signatures;
    std::size_t candidates_failed = 0;
    double predicted_speedup = 1.0;
  };
  struct Candidate {
    std::uint32_t hw_cycles = 0;
    double cad_seconds = 0.0;
  };
  std::map<std::string, Input> inputs_;
  std::map<std::uint64_t, Candidate> candidates_;
};

/// Hash of a module's code and data, excluding the module name (requests
/// carry unique names so the server never coalesces them).
[[nodiscard]] std::uint64_t module_hash(const jx::ir::Module& module);

/// One VM call the adapted binary must answer like the original.
struct RefRun {
  std::string entry;
  std::vector<jx::vm::Slot> args;
};

/// Collects op results during the timed phase (cheaply: a hash, plus one
/// copy of the adapted binary per distinct hash) and runs the differential
/// execution afterwards. Thread-safe.
class OutputVerifier {
 public:
  /// Registers the adapted binary of one op; returns its key.
  std::uint64_t add(const jx::ir::Module* original,
                    const std::vector<RefRun>* runs,
                    const jx::jit::SpecializationResult& result);
  /// Runs every distinct adapted binary once on its ref runs.
  void verify();
  /// True when the binary registered under `key` passed verify().
  [[nodiscard]] bool passed(std::uint64_t key) const;
  [[nodiscard]] std::size_t distinct() const;

 private:
  struct Entry {
    const jx::ir::Module* original = nullptr;
    const std::vector<RefRun>* runs = nullptr;
    std::shared_ptr<const jx::ir::Module> rewritten;
    std::shared_ptr<const jx::woolcano::CiRegistry> registry;
    bool passed = false;
  };
  mutable std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;
};

}  // namespace perfbench
