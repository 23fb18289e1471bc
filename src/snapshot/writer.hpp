// Snapshot serializer.  The format is big-endian throughout (ByteWriter) and
// fully canonical: links are written in sorted LinkKey order, so the same
// Snapshot always produces byte-identical output — file-level equality is
// snapshot equality.  encode() emits format v2, the mmap-able flat layout
// (layout.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/snapshot.hpp"

namespace htor::snapshot {

class Writer {
 public:
  /// Serialize `snap` to its canonical v2 byte form.  Throws InvalidArgument
  /// when the snapshot is not encodable (source path over 64 KiB, a map
  /// entry with first == second, or a relationship/class value outside the
  /// format's range).
  static std::vector<std::uint8_t> encode(const Snapshot& snap);

  /// encode() to a temporary file in the target directory, then rename it
  /// over `path` — readers (and a serving daemon mmap) never observe a
  /// half-written snapshot.  Throws Error when the file cannot be created
  /// or fully written.
  static void write_file(const Snapshot& snap, const std::string& path);
};

}  // namespace htor::snapshot
