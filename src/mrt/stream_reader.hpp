// The MRT reader: scan record headers sequentially from a file or an
// in-memory buffer, hand raw record bodies to a thread pool for parallel
// decode, and join routes directly into an ObservedRib — without ever
// materializing the whole file or a full Record vector.
//
// Peak memory is one batch of raw bodies plus their decoded routes plus the
// growing RIB.  Batches have a FIXED record count and merge strictly in
// record order, so rib_from_stream() gives the same RIB at any pool size
// and batch size: the RIB a plain loop gets by joining every RIB record, in
// file order, against the peer table before it.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
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

/// Sequential header scanner over an MRT file or buffer — the one MRT
/// framer.  Only the 12-byte common header is interpreted here; bodies are
/// returned raw for the caller to decode (possibly in parallel).  Framing is
/// validated against the source's size, so a garbage or truncated length
/// field fails with DecodeError at the offending record instead of
/// over-allocating or returning a short body.
class MrtStreamReader {
 public:
  /// Opens `path` for buffered binary reading.  Throws Error when the file
  /// cannot be opened or sized.
  explicit MrtStreamReader(const std::string& path);

  /// Frames `bytes` (not copied; must outlive the reader).  A buffer source
  /// never fails to read, so it throws DecodeError only.
  explicit MrtStreamReader(std::span<const std::uint8_t> bytes);

  /// Next framed record, or nullopt at a clean end of the source.  Throws
  /// DecodeError on a truncated header, a truncated body, or a length field
  /// that overruns the source; throws Error on a file read failure.
  std::optional<RawFramedRecord> next();

  /// Next BGP4MP MESSAGE / MESSAGE_AS4 frame, or nullopt at the end.
  /// Frames of any other type or subtype (RIB snapshots, state changes,
  /// unknown types) are skipped by header alone — never decoded — and
  /// counted in updates_skipped().  This is the iteration mode the live
  /// update pipeline reads with, so a mixed dump+updates file works without
  /// a second ad-hoc scanner.  Framing errors throw exactly as next() does.
  std::optional<RawFramedRecord> next_update();

  std::uint64_t records_read() const { return records_; }
  std::uint64_t bytes_read() const { return bytes_; }
  /// The file's size when it was opened, or the buffer's size.
  std::uint64_t source_size() const { return size_; }
  /// Frames next_update() passed over because they were not BGP4MP messages.
  std::uint64_t updates_skipped() const { return skipped_; }

 private:
  /// Copy up to `n` bytes at the read position into `out`; fewer only at
  /// the end of the source.  Throws Error on a file read failure.
  std::size_t read(std::uint8_t* out, std::size_t n);

  std::string source_;  ///< how errors name the source
  std::span<const std::uint8_t> buffer_;  ///< the buffer source
  std::vector<char> io_buffer_;  ///< the file source's stream buffer
  std::ifstream in_;  ///< the file source; never opened for a buffer
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;    ///< read position
  std::uint64_t bytes_ = 0;  ///< consumed by whole records (headers + bodies)
  std::uint64_t records_ = 0;
  std::uint64_t skipped_ = 0;
};

/// The RIB's epoch: the MRT timestamp of the first record of `path`, or 0
/// for an empty file.  This (not wall clock) stamps snapshots, so a census
/// of the same input reproduces its snapshot byte for byte.
std::uint32_t rib_epoch(const std::string& path);

/// Records per decode batch.  Fixed (never derived from the pool size) so
/// batch boundaries — and therefore output — are identical for any --jobs.
inline constexpr std::size_t kStreamBatchRecords = 4096;

/// Read `stream` to its end into an ObservedRib: headers are scanned
/// sequentially, bodies of each fixed-size batch decode in parallel on
/// `pool`, and joined routes merge in record order.  Every record is fully
/// decoded (non-RIB bodies too), so any malformed record fails with
/// DecodeError.  A RIB record before any PEER_INDEX_TABLE, or an entry whose
/// peer index is out of range, is a DecodeError too.
ObservedRib rib_from_stream(MrtStreamReader& stream, ThreadPool& pool,
                            std::size_t batch_records = kStreamBatchRecords);

/// rib_from_stream() over the file at `path`.
ObservedRib rib_from_stream(const std::string& path, ThreadPool& pool,
                            std::size_t batch_records = kStreamBatchRecords);

}  // namespace htor::mrt
