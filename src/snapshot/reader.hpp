// Snapshot deserializer with the same fail-clean discipline as the MRT
// readers: every malformed input — truncation at any byte, wrong magic, a
// version other than the current one, out-of-range relationship/class
// values, non-canonical entry order, trailing garbage — throws DecodeError
// and never yields a partial Snapshot.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "snapshot/snapshot.hpp"

namespace htor::snapshot {

class Reader {
 public:
  /// Decode one v2 snapshot from `data`: the flat layout is validated as a
  /// whole, then materialized.  The buffer must contain exactly one
  /// snapshot; trailing bytes are an error.  A v1 file is rejected with a
  /// DecodeError that names `hybridtor census --snapshot-out` as the way to
  /// regenerate it.
  static Snapshot decode(std::span<const std::uint8_t> data);

  /// Load and decode `path`.  Throws Error when the file cannot be read and
  /// DecodeError when its contents are not a valid snapshot.
  static Snapshot read_file(const std::string& path);

  /// Cheap header-only probe (magic, version, timestamp, source) without
  /// decoding the maps.  Same error discipline as decode() for the header
  /// region.
  static Header probe(std::span<const std::uint8_t> data);
};

}  // namespace htor::snapshot
