// Bounds-checked big-endian byte readers/writers used by the BGP and MRT
// wire codecs.  Network protocols are big-endian throughout, so only
// big-endian accessors are provided.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace htor {

/// Sequential reader over an immutable byte buffer.  Every accessor checks
/// bounds and throws DecodeError on underrun; the reader never reads past
/// the span it was constructed with.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// Bytes not yet consumed.
  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();

  /// Consume exactly n bytes and return a view of them (valid while the
  /// underlying buffer lives).
  std::span<const std::uint8_t> bytes(std::size_t n);

  /// Consume n bytes into an owned vector.
  std::vector<std::uint8_t> bytes_copy(std::size_t n);

  /// Consume n bytes as text.
  std::string text(std::size_t n);

  /// Skip n bytes.
  void skip(std::size_t n);

  /// A sub-reader over the next n bytes; the parent position advances by n.
  ByteReader sub(std::size_t n);

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Read a whole binary file into memory.  Throws Error naming the path when
/// the file cannot be opened, sized, or fully read, or is a directory.
std::vector<std::uint8_t> load_bytes(const std::string& path);

/// Write `data` to `path` (truncating).  Throws Error when the file cannot
/// be created or the final flush fails — a short write never passes silently.
void save_bytes(const std::string& path, std::span<const std::uint8_t> data);

/// Append-only big-endian writer producing a byte vector.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);
  void text(const std::string& s);

  /// Back-patch a previously written 16-bit length field at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t v);
  /// Back-patch a previously written 32-bit length field at `offset`.
  void patch_u32(std::size_t offset, std::uint32_t v);

  std::size_t size() const { return out_.size(); }
  const std::vector<std::uint8_t>& data() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

}  // namespace htor
