#include "jit/cache.hpp"

#include <iterator>

#include "jit/cache_io.hpp"

namespace jitise::jit {

std::optional<CachedImplementation> BitstreamCache::lookup(
    std::uint64_t signature) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(signature);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void BitstreamCache::insert(std::uint64_t signature,
                            CachedImplementation entry) {
  const std::size_t size = entry.bitstream.size_bytes();
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = map_.find(signature); it != map_.end()) {
    bytes_ = bytes_ - it->second->second.bitstream.size_bytes() + size;
    it->second->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    if (journal_) journal_->record_insert(signature, it->second->second);
    return;
  }
  lru_.emplace_front(signature, std::move(entry));
  map_[signature] = lru_.begin();
  bytes_ += size;
  if (journal_) journal_->record_insert(signature, lru_.front().second);
  while (capacity_ != 0 && bytes_ > capacity_ && lru_.size() > 1)
    remove_locked(std::prev(lru_.end()), /*journaled=*/true);
}

void BitstreamCache::remove_locked(Lru::iterator it, bool journaled) {
  if (journaled) {
    if (journal_) journal_->record_evict(it->first);
    ++evictions_;
  }
  bytes_ -= it->second.bitstream.size_bytes();
  map_.erase(it->first);
  lru_.erase(it);
}

std::size_t BitstreamCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::size_t BitstreamCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t BitstreamCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t BitstreamCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t BitstreamCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

bool BitstreamCache::contains(std::uint64_t signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.count(signature) != 0;
}

bool BitstreamCache::erase(std::uint64_t signature) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(signature);
  if (it == map_.end()) return false;
  remove_locked(it->second, /*journaled=*/false);
  return true;
}

bool BitstreamCache::evict(std::uint64_t signature) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(signature);
  if (it == map_.end()) return false;
  remove_locked(it->second, /*journaled=*/true);
  return true;
}

std::vector<std::pair<std::uint64_t, CachedImplementation>>
BitstreamCache::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {lru_.begin(), lru_.end()};
}

}  // namespace jitise::jit
