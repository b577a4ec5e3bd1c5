#include "digest.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "woolcano/asip.hpp"

namespace perfbench {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// Hex floats round-trip every bit of a double.
std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream in(s);
  while (std::getline(in, cur, sep)) out.push_back(cur);
  return out;
}

}  // namespace

OpDigest OpDigest::of(const jx::jit::SpecializationResult& result) {
  OpDigest d;
  for (const jx::jit::ImplementedCandidate& impl : result.implemented) {
    d.signatures.push_back(impl.signature);
    d.hw_cycles.push_back(impl.hw_cycles);
    d.cad_seconds.push_back(impl.total_seconds());
    d.cache_hit.push_back(impl.cache_hit);
  }
  d.candidates_failed = result.candidates_failed;
  d.predicted_speedup = result.predicted_speedup;
  return d;
}

std::uint64_t OpDigest::hash() const {
  Mix m;
  m.add(signatures.size());
  for (std::size_t i = 0; i < signatures.size(); ++i) {
    m.add(signatures[i]);
    m.add(hw_cycles[i]);
    m.add_double(cad_seconds[i]);
    m.add(cache_hit[i] ? 1 : 0);
  }
  m.add(candidates_failed);
  m.add_double(predicted_speedup);
  return m.h;
}

PinnedDigests PinnedDigests::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open pinned digests " + path);
  PinnedDigests p;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> f = split(line, '\t');
    const auto bad = [&] {
      return std::runtime_error(path + ":" + std::to_string(lineno) +
                                ": malformed digest line");
    };
    if (f.size() == 5 && f[0] == "input") {
      Input in_row;
      in_row.candidates_failed = std::stoul(f[2]);
      in_row.predicted_speedup = std::strtod(f[3].c_str(), nullptr);
      if (f[4] != "-")
        for (const std::string& s : split(f[4], ','))
          in_row.signatures.push_back(std::stoull(s, nullptr, 16));
      p.inputs_[f[1]] = std::move(in_row);
    } else if (f.size() == 4 && f[0] == "cand") {
      Candidate c;
      c.hw_cycles = static_cast<std::uint32_t>(std::stoul(f[2]));
      c.cad_seconds = std::strtod(f[3].c_str(), nullptr);
      p.candidates_[std::stoull(f[1], nullptr, 16)] = c;
    } else {
      throw bad();
    }
  }
  if (p.inputs_.empty()) throw std::runtime_error(path + ": no pinned inputs");
  return p;
}

void PinnedDigests::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# Modeled specialization outcomes pinned from the reference\n"
         "# specializer (jit::specialize, jobs=1, fresh caches). Regenerate\n"
         "# only for an announced model change: perfbench --pin <file>.\n"
         "# input <name> <candidates_failed> <predicted_speedup> <sigs>\n"
         "# cand <signature> <hw_cycles> <modeled CAD seconds>\n";
  for (const auto& [name, in] : inputs_) {
    std::string sigs;
    for (std::uint64_t s : in.signatures) {
      if (!sigs.empty()) sigs += ',';
      sigs += hex64(s);
    }
    out << "input\t" << name << '\t' << in.candidates_failed << '\t'
        << hexfloat(in.predicted_speedup) << '\t'
        << (sigs.empty() ? "-" : sigs) << '\n';
  }
  for (const auto& [sig, c] : candidates_)
    out << "cand\t" << hex64(sig) << '\t' << c.hw_cycles << '\t'
        << hexfloat(c.cad_seconds) << '\n';
}

void PinnedDigests::pin(const std::string& input, const OpDigest& d) {
  inputs_[input] = Input{d.signatures, d.candidates_failed,
                         d.predicted_speedup};
  pin_candidates(d);
}

void PinnedDigests::pin_candidates(const OpDigest& d) {
  // A hit (a signature repeated within one input) carries no CAD seconds.
  for (std::size_t i = 0; i < d.signatures.size(); ++i)
    if (!d.cache_hit[i])
      candidates_[d.signatures[i]] = Candidate{d.hw_cycles[i], d.cad_seconds[i]};
}

std::string PinnedDigests::check(const std::string& input,
                                 const OpDigest& d) const {
  const auto it = inputs_.find(input);
  if (it == inputs_.end()) return input + ": no pinned digest";
  const Input& want = it->second;
  if (d.signatures != want.signatures)
    return input + ": implemented signatures differ from the pinned set";
  if (d.candidates_failed != want.candidates_failed)
    return input + ": candidates_failed " +
           std::to_string(d.candidates_failed) + " != pinned " +
           std::to_string(want.candidates_failed);
  if (!same_bits(d.predicted_speedup, want.predicted_speedup))
    return input + ": predicted_speedup " + hexfloat(d.predicted_speedup) +
           " != pinned " + hexfloat(want.predicted_speedup);
  const std::string cand = check_candidates(d);
  return cand.empty() ? cand : input + ": " + cand;
}

std::string PinnedDigests::check_candidates(const OpDigest& d) const {
  for (std::size_t i = 0; i < d.signatures.size(); ++i) {
    const auto it = candidates_.find(d.signatures[i]);
    if (it == candidates_.end())
      return "candidate " + hex64(d.signatures[i]) + " is not pinned";
    if (d.hw_cycles[i] != it->second.hw_cycles)
      return "candidate " + hex64(d.signatures[i]) + ": hw_cycles " +
             std::to_string(d.hw_cycles[i]) + " != pinned " +
             std::to_string(it->second.hw_cycles);
    const double want = d.cache_hit[i] ? 0.0 : it->second.cad_seconds;
    if (!same_bits(d.cad_seconds[i], want))
      return "candidate " + hex64(d.signatures[i]) + ": modeled CAD seconds " +
             hexfloat(d.cad_seconds[i]) + " != pinned " + hexfloat(want);
  }
  return {};
}

std::uint64_t module_hash(const jx::ir::Module& module) {
  Mix m;
  m.add(module.functions.size());
  for (const jx::ir::Function& fn : module.functions) {
    m.add_string(fn.name);
    m.add(static_cast<std::uint64_t>(fn.ret_type));
    for (jx::ir::Type t : fn.params) m.add(static_cast<std::uint64_t>(t));
    m.add(fn.values.size());
    for (const jx::ir::Instruction& inst : fn.values) {
      m.add(static_cast<std::uint64_t>(inst.op) << 8 |
            static_cast<std::uint64_t>(inst.type));
      m.add(static_cast<std::uint64_t>(inst.imm));
      m.add_double(inst.fimm);
      m.add(static_cast<std::uint64_t>(inst.aux) << 32 | inst.aux2);
      m.add(inst.operands.size());
      for (jx::ir::ValueId o : inst.operands) m.add(o);
      for (jx::ir::BlockId b : inst.phi_blocks) m.add(b);
    }
    m.add(fn.blocks.size());
    for (const jx::ir::BasicBlock& block : fn.blocks) {
      m.add(block.instrs.size());
      for (jx::ir::ValueId v : block.instrs) m.add(v);
    }
  }
  m.add(module.globals.size());
  for (const jx::ir::Global& g : module.globals) {
    m.add(g.size_bytes);
    for (std::uint8_t b : g.init) m.add(b);
  }
  return m.h;
}

std::uint64_t OutputVerifier::add(const jx::ir::Module* original,
                                  const std::vector<RefRun>* runs,
                                  const jx::jit::SpecializationResult& result) {
  Mix m;
  m.add(reinterpret_cast<std::uintptr_t>(original));
  m.add(module_hash(result.rewritten));
  for (const jx::woolcano::CustomInstruction& ci : result.registry.all()) {
    m.add(ci.signature);
    m.add(ci.hw_cycles);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, fresh] = entries_.try_emplace(m.h);
  if (fresh) {
    it->second.original = original;
    it->second.runs = runs;
    it->second.rewritten =
        std::make_shared<const jx::ir::Module>(result.rewritten);
    it->second.registry =
        std::make_shared<const jx::woolcano::CiRegistry>(result.registry);
  }
  return m.h;
}

void OutputVerifier::verify() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : entries_) {
    e.passed = true;
    for (const RefRun& run : *e.runs) {
      const jx::woolcano::AdaptedRun r = jx::woolcano::run_adapted(
          *e.original, *e.rewritten, *e.registry, run.entry, run.args);
      if (r.original_result.i != r.adapted_result.i ||
          !same_bits(r.original_result.f, r.adapted_result.f))
        e.passed = false;
    }
  }
}

bool OutputVerifier::passed(std::uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  return it != entries_.end() && it->second.passed;
}

std::size_t OutputVerifier::distinct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace perfbench
