#include "topology/path_store.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace htor {

namespace {

std::uint64_t pack(const LinkKey& key) {
  return static_cast<std::uint64_t>(key.first) << 32 | key.second;
}

/// Size of an open-addressing table that holds `used` entries at most half
/// full: a power of two, at least 16.
std::size_t table_size(std::size_t used) {
  return std::bit_ceil(std::max<std::size_t>(16, 2 * used));
}

/// Path ids and arena offsets are 32-bit.
void check_fits(std::size_t paths, std::size_t words) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (paths >= kMax || words > kMax) {
    throw Error("path table full: more paths or ASes than its 32-bit index can hold");
  }
}

}  // namespace

void PathStore::Batch::push(std::span<const Asn> path, std::uint64_t hash) {
  words.insert(words.end(), path.begin(), path.end());
  paths.emplace_back(hash, static_cast<std::uint32_t>(path.size()));
}

PathStore::PathStore(std::vector<PathStore> parts) {
  std::size_t words = 0;
  std::size_t count = 0;
  for (const PathStore& part : parts) {
    words += part.arena_.size();
    count += part.paths_.size();
  }
  check_fits(count, words);
  arena_.reserve(words);
  paths_.reserve(count);
  for (PathStore& part : parts) {
    const auto base = static_cast<std::uint32_t>(arena_.size());
    arena_.insert(arena_.end(), part.arena_.begin(), part.arena_.end());
    for (Entry entry : part.paths_) {
      entry.offset += base;
      paths_.push_back(entry);
    }
    total_ += part.total_;
    for (const LinkSlot& slot : part.links_) {
      if (slot.key != 0) count_link(slot.key, slot.paths);
    }
    part = PathStore{};  // release each part once it is copied
  }
  // No path index: a joined table is read, and the first add() builds it.
}

std::uint64_t PathStore::hash(std::span<const Asn> path) {
  std::uint64_t h = splitmix64(path.size());
  std::size_t i = 0;
  for (; i + 1 < path.size(); i += 2) {
    h = hash_mix(h, static_cast<std::uint64_t>(path[i]) << 32 | path[i + 1]);
  }
  if (i < path.size()) h = hash_mix(h, path[i]);
  return h;
}

bool PathStore::storable(std::span<const Asn> path) {
  return std::adjacent_find(path.begin(), path.end(), std::not_equal_to<>()) != path.end();
}

void PathStore::add(const std::vector<Asn>& path) {
  if (storable(path)) insert(path, hash(path));
}

void PathStore::add_batches(std::span<const Batch> batches) {
  // Room for every staged path up front: a partition's paths are mostly
  // distinct, so growing as they arrive would copy the table several times.
  std::size_t words = 0;
  std::size_t paths = 0;
  for (const Batch& batch : batches) {
    words += batch.words.size();
    paths += batch.paths.size();
  }
  arena_.reserve(arena_.size() + words);
  paths_.reserve(paths_.size() + paths);
  if (2 * (paths_.size() + paths) > slots_.size()) rebuild_index(paths_.size() + paths);
  for (const Batch& batch : batches) {
    std::size_t offset = 0;
    for (const auto& [hash, length] : batch.paths) {
      insert({batch.words.data() + offset, length}, hash);
      offset += length;
    }
  }
}

void PathStore::insert(std::span<const Asn> path, std::uint64_t hash) {
  ++total_;
  if (2 * (paths_.size() + 1) > slots_.size()) rebuild_index(2 * (paths_.size() + 1));
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = hash & mask;
  for (; slots_[slot] != 0; slot = (slot + 1) & mask) {
    Entry& entry = paths_[slots_[slot] - 1];
    if (entry.hash == hash && std::ranges::equal(words_of(entry), path)) {
      ++entry.count;
      return;
    }
  }
  check_fits(paths_.size() + 1, arena_.size() + path.size());
  slots_[slot] = static_cast<std::uint32_t>(paths_.size() + 1);
  paths_.push_back({hash, 1, static_cast<std::uint32_t>(arena_.size()),
                    static_cast<std::uint32_t>(path.size())});
  arena_.insert(arena_.end(), path.begin(), path.end());

  // Count each link once per distinct path.  Paths are a few hops long, so
  // a scan over the path's earlier links finds a repeated one.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] == path[i + 1]) continue;  // prepending
    const LinkKey key(path[i], path[i + 1]);
    bool repeated = false;
    for (std::size_t j = 0; j < i && !repeated; ++j) {
      repeated = path[j] != path[j + 1] && LinkKey(path[j], path[j + 1]) == key;
    }
    if (!repeated) count_link(pack(key), 1);
  }
}

void PathStore::rebuild_index(std::size_t room) {
  slots_.assign(table_size(room), 0);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t id = 0; id < paths_.size(); ++id) {
    std::size_t slot = paths_[id].hash & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(id + 1);
  }
}

void PathStore::count_link(std::uint64_t key, std::uint64_t paths) {
  if (2 * (link_count_ + 1) > links_.size()) {
    std::vector<LinkSlot> old =
        std::exchange(links_, std::vector<LinkSlot>(table_size(2 * (link_count_ + 1))));
    link_count_ = 0;
    for (const LinkSlot& slot : old) {
      if (slot.key != 0) count_link(slot.key, slot.paths);
    }
  }
  const std::size_t mask = links_.size() - 1;
  std::size_t i = splitmix64(key) & mask;
  while (links_[i].key != 0 && links_[i].key != key) i = (i + 1) & mask;
  if (links_[i].key == 0) {
    links_[i].key = key;
    ++link_count_;
  }
  links_[i].paths += paths;
}

std::vector<LinkKey> PathStore::links() const {
  std::vector<LinkKey> out;
  out.reserve(link_count_);
  for (const LinkSlot& slot : links_) {
    if (slot.key != 0) {
      out.emplace_back(static_cast<Asn>(slot.key >> 32), static_cast<Asn>(slot.key));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t PathStore::paths_containing(Asn a, Asn b) const {
  if (links_.empty()) return 0;
  const std::uint64_t key = pack(LinkKey(a, b));
  const std::size_t mask = links_.size() - 1;
  for (std::size_t i = splitmix64(key) & mask; links_[i].key != 0; i = (i + 1) & mask) {
    if (links_[i].key == key) return links_[i].paths;
  }
  return 0;
}

}  // namespace htor
