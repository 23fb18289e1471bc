// Streaming MRT ingestion: scan record headers sequentially from buffered
// file I/O, hand raw record bodies to a thread pool for parallel decode, and
// join routes directly into an ObservedRib — without ever materializing the
// whole file or a full Record vector.
//
// Peak memory is one batch of raw bodies plus their decoded routes plus the
// growing RIB, instead of a whole-file buffer plus a whole-file Record
// vector plus the RIB.  Batches have a FIXED record count and shard with
// the same fixed shard_ranges() as the in-memory join, merging strictly in
// record order, so rib_from_stream() is byte-identical to
// rib_from_records(read_all(load_file(path))) at any pool size.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "mrt/rib_view.hpp"
#include "util/thread_pool.hpp"

namespace htor::mrt {

/// One record as framed on the wire: common-header fields plus the raw,
/// not-yet-decoded body bytes.
struct RawFramedRecord {
  std::uint32_t timestamp = 0;
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::vector<std::uint8_t> body;
};

/// Sequential header scanner over an on-disk MRT file.  Only the 12-byte
/// common header is interpreted here; bodies are returned raw for the caller
/// to decode (possibly in parallel).  Framing is validated against the file
/// size, so a garbage or truncated length field fails with DecodeError at
/// the offending record instead of over-allocating or returning a short body.
class MrtStreamReader {
 public:
  /// Opens `path` for buffered binary reading.  Throws Error when the file
  /// cannot be opened or sized.
  explicit MrtStreamReader(const std::string& path,
                           std::size_t io_buffer_bytes = kDefaultIoBuffer);

  /// Next framed record, or nullopt at clean end-of-file.  Throws
  /// DecodeError on a truncated header, a truncated body, or a length field
  /// that overruns the file; throws Error on I/O failure.
  std::optional<RawFramedRecord> next();

  /// Next BGP4MP MESSAGE / MESSAGE_AS4 frame, or nullopt at end-of-file.
  /// Frames of any other type or subtype (RIB snapshots, state changes,
  /// unknown types) are skipped by header alone — never decoded — and
  /// counted in updates_skipped().  This is the iteration mode the live
  /// update pipeline reads with, so a mixed dump+updates file works without
  /// a second ad-hoc scanner.  Framing errors throw exactly as next() does.
  std::optional<RawFramedRecord> next_update();

  std::uint64_t records_read() const { return records_; }
  std::uint64_t bytes_read() const { return bytes_; }
  std::uint64_t file_size() const { return file_size_; }
  /// Frames next_update() passed over because they were not BGP4MP messages.
  std::uint64_t updates_skipped() const { return skipped_; }

  static constexpr std::size_t kDefaultIoBuffer = 256 * 1024;

 private:
  std::string path_;
  std::vector<char> io_buffer_;
  std::ifstream in_;
  std::uint64_t file_size_ = 0;
  std::uint64_t bytes_ = 0;  ///< consumed so far (headers + bodies)
  std::uint64_t records_ = 0;
  std::uint64_t skipped_ = 0;
};

/// Records per decode batch.  Fixed (never derived from the pool size) so
/// batch boundaries — and therefore output — are identical for any --jobs.
inline constexpr std::size_t kStreamBatchRecords = 4096;

/// Stream `path` into an ObservedRib: headers are scanned sequentially,
/// bodies of each fixed-size batch decode in parallel on `pool`, and joined
/// routes merge in record order.  All records are fully decoded (non-RIB
/// bodies too), so malformed input fails with the same DecodeError
/// discipline as the in-memory path, and the resulting RIB is identical to
/// rib_from_records(read_all(load_file(path))).
ObservedRib rib_from_stream(const std::string& path, ThreadPool& pool,
                            std::size_t batch_records = kStreamBatchRecords);

}  // namespace htor::mrt
