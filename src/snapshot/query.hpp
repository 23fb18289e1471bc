// Query index over one snapshot: AS-pair lookups (rel_v4, rel_v6, hybrid?)
// and AS neighbor lists.
//
// Since format v2 this is a zero-copy *view* over a MappedSnapshot, not a
// rebuilt in-RAM structure: `lookup` is a branchless binary search over the
// file's sorted link table, `neighbors` walks a CSR slice, and constructing
// the index from a v2 file is map-validate-wrap with no per-entry decode.
// It is how the library reads a snapshot file: `diff` (diff.hpp) merges two
// indexes' link tables in place, and no path decodes an image back into a
// Snapshot struct.
// The view holds shared ownership of the image, so copies stay valid after
// the file on disk changes and after a daemon hot-reload swap; the image is
// unmapped/freed when the last view drops.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "snapshot/mapped.hpp"
#include "snapshot/snapshot.hpp"

namespace htor::snapshot {

struct Diff;

class QueryIndex {
 public:
  /// Index an in-memory snapshot by encoding it to a v2 image (the snapshot
  /// itself is not retained).  Throws InvalidArgument when the snapshot is
  /// not encodable — the same rules as Writer::encode.
  explicit QueryIndex(const Snapshot& snap);

  /// Open a snapshot file into an *owned* image: read, validate, wrap.
  /// This is the daemon's reload path — owned bytes survive the file being
  /// truncated or rewritten in place underneath a running server, which an
  /// mmap would not (SIGBUS).
  static QueryIndex open(const std::string& path);

  /// Open a snapshot file zero-copy via mmap.  For short-lived CLI lookups:
  /// the kernel pages in only what the binary search touches.  The mapping pins the inode, so views keep
  /// working after the path is rename()-replaced — but not after an
  /// in-place truncation, which is why the daemon uses open() instead.
  static QueryIndex open_mapped(const std::string& path);

  /// One link as seen from `a` toward `b`: relationships are oriented a -> b.
  struct LinkInfo {
    Relationship rel_v4 = Relationship::Unknown;
    Relationship rel_v6 = Relationship::Unknown;
    bool hybrid = false;

    friend bool operator==(const LinkInfo&, const LinkInfo&) = default;
  };

  /// The a->b view of the link, or nullopt when neither family recorded it.
  std::optional<LinkInfo> lookup(Asn a, Asn b) const;

  struct Neighbor {
    Asn asn = 0;
    LinkInfo info;  ///< oriented from the queried AS toward `asn`
  };

  /// All recorded neighbors of `asn`, ascending by neighbor ASN; empty when
  /// the AS appears in neither family's map nor the hybrid list.
  std::vector<Neighbor> neighbors(Asn asn) const;

  bool contains(Asn asn) const { return view().find_asn(asn).has_value(); }

  std::size_t link_count() const { return view().link_count; }
  std::size_t as_count() const { return view().asn_count; }
  /// Distinct links flagged hybrid (the hybrid table may list duplicates).
  std::size_t hybrid_count() const { return view().hybrid_link_count; }
  /// Rows in the hybrid table itself, duplicates included.
  std::size_t hybrid_entry_count() const { return view().hybrid_count; }

  // -- snapshot metadata, straight from the image ------------------------

  /// Format version of the image (every index is a v2 image).
  std::uint32_t format_version() const { return kFormatVersion; }
  /// Byte size of the image: the file's size, or the encoded snapshot's.
  std::uint64_t snapshot_bytes() const { return image_->byte_size(); }
  /// True when the image is an mmap rather than owned memory.
  bool is_mapped() const { return image_->is_mapped(); }

  std::string source() const { return view().source(); }
  std::uint64_t timestamp() const { return view().timestamp; }
  DatasetStats dataset() const { return view().dataset(); }
  CoverageCounters coverage_v4() const { return view().coverage(0); }
  CoverageCounters coverage_v6() const { return view().coverage(1); }
  CoverageCounters coverage_dual() const { return view().coverage(2); }
  ValleyCounters valleys_v4() const { return view().valleys(0); }
  ValleyCounters valleys_v6() const { return view().valleys(1); }
  HybridCounters hybrid_counters() const { return view().hybrid_counters(); }

 private:
  /// diff.hpp: merge-walks two indexes' link tables in place.
  friend Diff diff(const QueryIndex& a, const QueryIndex& b);

  explicit QueryIndex(std::shared_ptr<const MappedSnapshot> image);

  const V2View& view() const { return image_->view(); }

  std::shared_ptr<const MappedSnapshot> image_;
};

}  // namespace htor::snapshot
