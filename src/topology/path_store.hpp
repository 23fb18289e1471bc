// Deduplicating table of observed AS paths with occurrence counts.
//
// The paper's path-level statistics ("13% of the IPv6 paths…", ">28% of the
// IPv6 paths contain at least one hybrid link") are computed over the set of
// distinct AS paths extracted from the collector dumps; this table is that
// set.
//
// Every distinct path sits in one contiguous Asn arena, with its offset,
// length and occurrence count beside it, and an open-addressing index over
// the paths' hashes finds it again.  Each link's distinct-path count is
// updated as a new path goes in, so every const member is a plain read and
// any number of threads may read one table at once.
//
// core::paths_of builds the table through core::partitioned_map_reduce:
// the map stages every route's path in a Batch of the partition its hash
// picks, each partition adds its batches into its own table, and the tables
// are joined in partition order.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "netbase/asn.hpp"
#include "topology/relationship.hpp"

namespace htor {

class PathStore {
 public:
  /// Paths staged for a partitioned build: their words back to back, and
  /// each path's hash and length.
  struct Batch {
    std::vector<Asn> words;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> paths;  ///< (hash, length)

    /// Stage one occurrence of a storable `path`; `hash` is hash(path).
    void push(std::span<const Asn> path, std::uint64_t hash);
  };

  PathStore() = default;

  /// Join tables that share no path, keeping their order: the paths of
  /// parts[0] first, then those of parts[1], and so on.
  explicit PathStore(std::vector<PathStore> parts);

  /// Hash of a path's words, the key of the table's index.
  static std::uint64_t hash(std::span<const Asn> path);

  /// True when `path` has two or more distinct ASes once prepending is
  /// collapsed; only such paths are stored.
  static bool storable(std::span<const Asn> path);

  /// Record one occurrence of `path`, stored verbatim (prepending kept).
  /// Paths that are not storable() are ignored.
  void add(const std::vector<Asn>& path);

  /// Record every path staged in `batches`, in order.
  void add_batches(std::span<const Batch> batches);

  /// Number of distinct paths.
  std::size_t unique_paths() const { return paths_.size(); }

  /// Total occurrences.
  std::uint64_t total_occurrences() const { return total_; }

  /// Visit every distinct path with its count, in insertion order (for a
  /// joined table, each part's paths in turn).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& entry : paths_) fn(words_of(entry), entry.count);
  }

  /// Distinct links appearing in any stored path, in canonical (sorted)
  /// order.
  std::vector<LinkKey> links() const;

  /// Number of distinct paths containing link (a, b) as adjacent ASes.
  std::uint64_t paths_containing(Asn a, Asn b) const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::uint64_t count = 0;
    std::uint32_t offset = 0;  ///< into arena_
    std::uint32_t length = 0;
  };

  std::span<const Asn> words_of(const Entry& entry) const {
    return {arena_.data() + entry.offset, entry.length};
  }

  /// A link's distinct-path count; key 0 marks a free slot (no link joins
  /// an AS to itself, so no link packs to 0).
  struct LinkSlot {
    std::uint64_t key = 0;  ///< first << 32 | second
    std::uint64_t paths = 0;
  };

  /// Count one occurrence of a storable `path` whose hash is `hash`.
  void insert(std::span<const Asn> path, std::uint64_t hash);
  /// Rebuild the path index with room for `room` paths.
  void rebuild_index(std::size_t room);
  /// Add `paths` to the count of the link packed as `key`.
  void count_link(std::uint64_t key, std::uint64_t paths);

  std::vector<Asn> arena_;
  std::vector<Entry> paths_;
  std::uint64_t total_ = 0;
  /// Open-addressing path index: path id + 1, 0 for a free slot.  Its size
  /// is a power of two and at least twice the path count, or 0 after a
  /// join, in which case the next insert() builds it.
  std::vector<std::uint32_t> slots_;
  /// Open-addressing link counts, a power of two in size, at most half full.
  std::vector<LinkSlot> links_;
  std::size_t link_count_ = 0;
};

}  // namespace htor
