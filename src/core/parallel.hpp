// Deterministic shard map-reduce for the census pipeline.
//
// Work over an index range [0, n) is cut into a FIXED number of contiguous
// shards — fixed meaning independent of the pool's thread count — mapped on
// the pool, and merged strictly in shard order.  Because the shard
// boundaries and the merge sequence never depend on how many workers ran,
// `--jobs 1` and `--jobs 8` produce byte-identical results; the thread count
// only changes how many shards are in flight at once.
//
// Keyed outputs (distinct paths) reduce by partition instead of through one
// serial fold: partitioned_map_reduce splits every shard's keys into
// kCensusShards partitions by hash, and each partition folds as its own
// pool task.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <future>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace htor::core {

/// Default shard count for the census hot paths.  Comfortably above any
/// realistic --jobs value so every worker stays busy, small enough that
/// per-shard state (vote maps, staged path batches) stays cheap to merge.
inline constexpr std::size_t kCensusShards = 32;
static_assert(std::has_single_bit(kCensusShards), "partition_of takes the top hash bits");

/// The partition, in [0, kCensusShards), of a key with 64-bit hash `hash`:
/// its top bits, which leaves the low bits to the partition's own index.
inline std::size_t partition_of(std::uint64_t hash) {
  return static_cast<std::size_t>(hash >> (64 - (std::bit_width(kCensusShards) - 1)));
}

struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;    ///< half-open
  std::size_t index = 0;  ///< shard number, 0-based

  std::size_t size() const { return end - begin; }
};

/// Cut [0, n) into at most `shards` contiguous near-equal ranges (fewer when
/// n < shards; none when n == 0).
inline std::vector<ShardRange> shard_ranges(std::size_t n, std::size_t shards = kCensusShards) {
  std::vector<ShardRange> out;
  if (n == 0 || shards == 0) return out;
  if (shards > n) shards = n;
  out.reserve(shards);
  const std::size_t base = n / shards;
  const std::size_t extra = n % shards;  // first `extra` shards get one more
  std::size_t begin = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    const std::size_t len = base + (i < extra ? 1 : 0);
    out.push_back(ShardRange{begin, begin + len, i});
    begin += len;
  }
  return out;
}

/// Map every shard of [0, n) on the pool; results come back in shard order.
/// The first exception thrown by any shard is rethrown here after all shards
/// finished (futures own their tasks, so nothing is left running).
template <typename Map>
auto shard_map(ThreadPool& pool, std::size_t n, Map map, std::size_t shards = kCensusShards)
    -> std::vector<std::invoke_result_t<Map, ShardRange>> {
  using R = std::invoke_result_t<Map, ShardRange>;
  const auto ranges = shard_ranges(n, shards);
  std::vector<std::future<R>> futures;
  futures.reserve(ranges.size());
  for (const ShardRange& range : ranges) {
    futures.push_back(pool.submit([map, range] { return map(range); }));
  }
  std::vector<R> results;
  results.reserve(futures.size());
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      results.push_back(future.get());
    } catch (...) {
      // Keep draining: later shards reference caller-owned data, so every
      // one must finish before this frame may unwind.
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

/// shard_map followed by an in-order fold into `init`.
template <typename Map, typename Acc, typename Reduce>
Acc shard_map_reduce(ThreadPool& pool, std::size_t n, Map map, Acc init, Reduce reduce,
                     std::size_t shards = kCensusShards) {
  auto results = shard_map(pool, n, std::move(map), shards);
  for (auto& result : results) reduce(init, std::move(result));
  return init;
}

/// Map-reduce for keyed outputs.  `map` turns each fixed shard of [0, n)
/// into a std::vector of exactly kCensusShards buckets, bucket p holding the
/// shard's keys with partition_of(hash) == p.  Partition p then calls
/// `fold(p, column)`, column being bucket p of shards 0, 1, ... (a const
/// vector in shard order), as its own pool task.  A key never leaves its partition, so the folds share no
/// state, and the results — returned in partition order — are the same for
/// every pool size.
template <typename Map, typename Fold>
auto partitioned_map_reduce(ThreadPool& pool, std::size_t n, Map map, Fold fold) {
  using Buckets = std::invoke_result_t<Map, ShardRange>;
  std::vector<Buckets> shards = shard_map(pool, n, std::move(map));
  return shard_map(
      pool, kCensusShards,
      [&shards, fold](const ShardRange& partition) {
        Buckets column;
        column.reserve(shards.size());
        for (Buckets& shard : shards) column.push_back(std::move(shard.at(partition.index)));
        return fold(partition.index, std::as_const(column));
      },
      kCensusShards);
}

}  // namespace htor::core
