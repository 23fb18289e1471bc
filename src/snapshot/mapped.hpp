// Shared-ownership wrapper around one validated v2 snapshot image.
//
// A MappedSnapshot owns its bytes through one of two backings:
//
//   from_bytes(vector)  an owned in-memory image — what the query daemon
//                       loads, because its snapshot file can be rewritten
//                       *in place* underneath it (the torn-file stress
//                       tests do exactly that) and a live mmap of a
//                       truncated inode dies with SIGBUS instead of a
//                       catchable error;
//   from_map(map)       a read-only mmap (QueryIndex::open_mapped) —
//                       zero-copy for the short-lived CLI `query` and
//                       `diff`, where the kernel pages in only what the
//                       binary search or the link-table walk touches.  The
//                       mapping pins the original inode, so a
//                       rename()-replaced file keeps serving its old bytes
//                       to existing views.
//
// Either way validate_v2 (layout.hpp) checks the whole image, its format
// version included, before the shared pointer escapes, and QueryIndex views
// hold the shared_ptr — the image unmaps/frees exactly when the last view
// drops, which is what lets a view outlive a daemon hot-reload swap.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "snapshot/layout.hpp"
#include "util/mmap_file.hpp"

namespace htor::snapshot {

class MappedSnapshot {
 public:
  /// Validate `bytes` as a v2 image and take ownership.  Throws DecodeError
  /// when the image is malformed; nothing escapes on failure.
  static std::shared_ptr<const MappedSnapshot> from_bytes(std::vector<std::uint8_t> bytes);

  /// Adopt an existing mapping and validate it as a v2 image.  Throws
  /// DecodeError when its contents are invalid.
  static std::shared_ptr<const MappedSnapshot> from_map(MmapFile map);

  /// The validated view; valid while this object lives.
  const V2View& view() const { return view_; }

  /// Size of the v2 image in bytes.
  std::uint64_t byte_size() const { return view_.bytes.size(); }

  /// True when the backing is an mmap rather than owned memory.
  bool is_mapped() const { return map_.mapped(); }

 private:
  MappedSnapshot() = default;

  MmapFile map_;
  std::vector<std::uint8_t> owned_;
  V2View view_;
};

}  // namespace htor::snapshot
