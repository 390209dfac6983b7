#include "hpo/eval_cache.h"

#include <algorithm>
#include <utility>

#include "common/rng.h"

namespace bhpo {

size_t EvalCache::KeyHash::operator()(const Key& key) const {
  uint64_t h = MixSeed(key.config_hash, key.subset_id);
  return static_cast<size_t>(MixSeed(h, key.fold));
}

EvalCache::EvalCache(EvalCacheOptions options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  if (options_.capacity == 0) options_.capacity = 1;
  // A shard never holds fewer entries than its even share of the global
  // capacity, so total residency stays within shards * ceil(capacity /
  // shards) ~= capacity. Tests that need exact capacity accounting use
  // shards = 1.
  per_shard_capacity_ =
      std::max<size_t>(1, (options_.capacity + options_.shards - 1) /
                              options_.shards);
  shards_.reserve(options_.shards);
  for (size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

EvalCache::Shard& EvalCache::ShardFor(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

std::optional<EvalCache::Entry> EvalCache::Lookup(const Key& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  // Touch: move to the front of the recency list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void EvalCache::Insert(const Key& key, Entry entry) {
  Shard& shard = ShardFor(key);
  size_t evicted = 0;
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Same key, deterministic computation: the value cannot differ, so
      // this only refreshes recency.
      it->second->second = std::move(entry);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      shard.lru.emplace_front(key, std::move(entry));
      shard.index.emplace(key, shard.lru.begin());
      inserted = true;
      while (shard.index.size() > per_shard_capacity_) {
        shard.index.erase(shard.lru.back().first);
        shard.lru.pop_back();
        ++evicted;
      }
    }
  }
  if (inserted) stats_.insertions.fetch_add(1, std::memory_order_relaxed);
  if (evicted > 0) {
    stats_.evictions.fetch_add(evicted, std::memory_order_relaxed);
  }
  // An insert that evicts leaves residency unchanged. Only the net +1 is
  // applied: adding 1 and subtracting the eviction separately would let a
  // concurrent Stats() read a count above capacity between the two.
  if (inserted && evicted == 0) {
    stats_.entries.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<EvalCache::FoldScore> EvalCache::LookupFold(uint64_t config_hash,
                                                          uint64_t subset_id,
                                                          uint32_t fold) {
  BHPO_CHECK(fold != kResultFold);
  std::optional<Entry> entry = Lookup(Key{config_hash, subset_id, fold});
  const FoldScore* value =
      entry.has_value() ? std::get_if<FoldScore>(&*entry) : nullptr;
  if (value != nullptr && value->failed && value->transient) {
    // Transient failures are never replayed: the fold must be re-attempted,
    // so this lookup counts as a miss.
    value = nullptr;
  }
  if (value == nullptr) {
    stats_.fold_misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  stats_.fold_hits.fetch_add(1, std::memory_order_relaxed);
  return *value;
}

void EvalCache::InsertFold(uint64_t config_hash, uint64_t subset_id,
                           uint32_t fold, const FoldScore& value) {
  BHPO_CHECK(fold != kResultFold);
  Insert(Key{config_hash, subset_id, fold}, value);
}

std::optional<EvalResult> EvalCache::LookupResult(uint64_t config_hash,
                                                  uint64_t subset_id) {
  std::optional<Entry> entry =
      Lookup(Key{config_hash, subset_id, kResultFold});
  EvalResult* value =
      entry.has_value() ? std::get_if<EvalResult>(&*entry) : nullptr;
  if (value == nullptr) {
    stats_.result_misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  stats_.result_hits.fetch_add(1, std::memory_order_relaxed);
  return std::move(*value);
}

void EvalCache::InsertResult(uint64_t config_hash, uint64_t subset_id,
                             const EvalResult& value) {
  Insert(Key{config_hash, subset_id, kResultFold}, value);
}

EvalCacheStats EvalCache::Stats() const {
  EvalCacheStats out;
  out.fold_hits = stats_.fold_hits.load(std::memory_order_relaxed);
  out.fold_misses = stats_.fold_misses.load(std::memory_order_relaxed);
  out.result_hits = stats_.result_hits.load(std::memory_order_relaxed);
  out.result_misses = stats_.result_misses.load(std::memory_order_relaxed);
  out.insertions = stats_.insertions.load(std::memory_order_relaxed);
  out.evictions = stats_.evictions.load(std::memory_order_relaxed);
  out.entries = stats_.entries.load(std::memory_order_relaxed);
  return out;
}

void EvalCache::Clear() {
  for (std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
  stats_.fold_hits.store(0, std::memory_order_relaxed);
  stats_.fold_misses.store(0, std::memory_order_relaxed);
  stats_.result_hits.store(0, std::memory_order_relaxed);
  stats_.result_misses.store(0, std::memory_order_relaxed);
  stats_.insertions.store(0, std::memory_order_relaxed);
  stats_.evictions.store(0, std::memory_order_relaxed);
  stats_.entries.store(0, std::memory_order_relaxed);
}

Result<EvalResult> CachingStrategy::Evaluate(const Configuration& config,
                                             const Dataset& train,
                                             size_t budget, Rng* rng) {
  if (rng == nullptr) return Status::InvalidArgument("null rng");
  uint64_t config_hash = config.Hash();
  uint64_t subset_id = EvalSubsetId(*rng, budget, train.n());
  if (std::optional<EvalResult> hit =
          cache_->LookupResult(config_hash, subset_id)) {
    // NOTE: `rng` is NOT advanced on a hit. Callers must hand each
    // evaluation its own stream (PerEvalRng does) so skipping the inner
    // strategy's draws cannot shift any later evaluation.
    hit->cache_result_hit = true;
    return std::move(*hit);
  }
  BHPO_ASSIGN_OR_RETURN(EvalResult result,
                        inner_->Evaluate(config, train, budget, rng));
  // A result containing a transient fold failure is not memoized: serving
  // it later would replay a failure that a fresh evaluation might clear.
  bool has_transient = false;
  for (const FoldOutcome& fold : result.cv.folds) {
    if (fold.transient_failure || fold.status == FoldStatus::kTimedOut) {
      has_transient = true;
      break;
    }
  }
  if (!has_transient) cache_->InsertResult(config_hash, subset_id, result);
  return result;
}

}  // namespace bhpo
