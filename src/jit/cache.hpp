// Partial-reconfiguration bitstream cache (paper §VI-A).
//
// "Much like virtual machines cache the binary code that was generated
// on-the-fly, we can cache the generated partial bitstreams for each custom
// instruction. Each candidate needs a unique identifier used as a key."
// The key is the candidate's structural signature (ise::candidate_signature),
// so identical datapaths hit across applications and runs. A size-bounded
// LRU policy models the on-disk database.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fpga/bitgen.hpp"

namespace jitise::jit {

struct CachedImplementation {
  fpga::Bitstream bitstream;
  std::uint32_t hw_cycles = 1;
  double critical_path_ns = 0.0;
  double area_slices = 0.0;
  std::size_t cells = 0;
  /// What generating this bitstream cost (modeled seconds) — the amount a
  /// cache hit saves.
  double generation_seconds = 0.0;
};

class CacheJournal;

/// Thread-safe size-bounded LRU: one mutex over one recency list and its
/// index. Only pipeline threads touch the cache (the dispatch `contains`,
/// the adaptation tail's `lookup`/`insert`, the drift loop's `evict`), a few
/// hundred operations per suite pass, so the one lock does not contend
/// (DESIGN.md "Bitstream cache: one lock").
///
/// An attached CacheJournal (jit/cache_io.hpp) is told about every insert
/// and journaled eviction while the cache mutex is held, so the journal's
/// file order is the cache's mutation order; its record hooks only buffer
/// and never call back into the cache.
class BitstreamCache {
 public:
  /// `capacity_bytes` bounds the sum of cached bitstream sizes (LRU
  /// eviction); 0 means unbounded.
  explicit BitstreamCache(std::size_t capacity_bytes = 0)
      : capacity_(capacity_bytes) {}

  /// Returns the entry and refreshes its LRU position.
  std::optional<CachedImplementation> lookup(std::uint64_t signature);

  /// Inserts (most recent) or replaces (refreshing recency; a replacement
  /// never evicts), then evicts least-recent entries until within capacity.
  void insert(std::uint64_t signature, CachedImplementation entry);

  [[nodiscard]] std::size_t entries() const;
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;
  /// Pure membership probe: touches neither the hit/miss counters nor the
  /// LRU order (the pipeline uses it to skip dispatching cached work).
  [[nodiscard]] bool contains(std::uint64_t signature) const;

  /// Removes one entry (journal-replay helper for evict tombstones). Unlike
  /// capacity eviction this is *not* forwarded to the journal — replay must
  /// not re-journal the records it is applying. Returns whether the
  /// signature was present.
  bool erase(std::uint64_t signature);

  /// Policy eviction of one entry (the adaptive re-specialization loop
  /// dropping a stale slot): like erase(), but journaled and counted in
  /// `evictions()`, so the persisted cache state and the stats agree with
  /// capacity eviction. Returns whether the signature was present.
  bool evict(std::uint64_t signature);

  /// Attaches (or detaches, with nullptr) the journal. Not owned; must
  /// outlive the cache or be detached first. Attach before the cache is
  /// shared across threads — the pointer itself is unsynchronized. `erase()`
  /// is never journaled; a journal is expected to be attached to a cache
  /// whose file it has itself just replayed (CacheJournal::attach).
  void set_journal(CacheJournal* journal) noexcept { journal_ = journal; }
  [[nodiscard]] CacheJournal* journal() const noexcept { return journal_; }

  /// Consistent snapshot of all entries (most recently used first) for
  /// serialization and inspection.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, CachedImplementation>>
  snapshot() const;

 private:
  using Lru = std::list<std::pair<std::uint64_t, CachedImplementation>>;

  /// Unlinks `it` (mu_ held); journals and counts it when `journaled`.
  void remove_locked(Lru::iterator it, bool journaled);

  const std::size_t capacity_;
  CacheJournal* journal_ = nullptr;
  mutable std::mutex mu_;
  Lru lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, Lru::iterator> map_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace jitise::jit
