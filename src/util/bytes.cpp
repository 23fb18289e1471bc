#include "util/bytes.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

namespace htor {

std::vector<std::uint8_t> load_bytes(const std::string& path) {
  // A stream opens a directory on Linux and reads it as end-of-file, so a
  // directory is refused here before it can pass for an empty file.
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    throw Error("cannot read '" + path + "': it is a directory");
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw Error("cannot open '" + path + "'");
  const std::streamsize size = in.tellg();
  if (size < 0) throw Error("cannot determine size of '" + path + "'");
  in.seekg(0);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) throw Error("read from '" + path + "' failed");
  return data;
}

void save_bytes(const std::string& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot write '" + path + "'");
  out.write(reinterpret_cast<const char*>(data.data()), static_cast<std::streamsize>(data.size()));
  out.flush();
  if (!out) throw Error("write to '" + path + "' failed");
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw DecodeError("buffer underrun: need " + std::to_string(n) + " bytes, have " +
                      std::to_string(remaining()));
  }
}

std::uint8_t ByteReader::u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::u16() {
  require(2);
  std::uint16_t v = static_cast<std::uint16_t>(static_cast<std::uint16_t>(data_[pos_]) << 8 |
                                               static_cast<std::uint16_t>(data_[pos_ + 1]));
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32() {
  require(4);
  std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) << 24 |
                    static_cast<std::uint32_t>(data_[pos_ + 1]) << 16 |
                    static_cast<std::uint32_t>(data_[pos_ + 2]) << 8 |
                    static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t hi = u32();
  std::uint64_t lo = u32();
  return hi << 32 | lo;
}

std::span<const std::uint8_t> ByteReader::bytes(std::size_t n) {
  require(n);
  auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::vector<std::uint8_t> ByteReader::bytes_copy(std::size_t n) {
  auto view = bytes(n);
  return {view.begin(), view.end()};
}

std::string ByteReader::text(std::size_t n) {
  auto view = bytes(n);
  return {reinterpret_cast<const char*>(view.data()), view.size()};
}

void ByteReader::skip(std::size_t n) {
  require(n);
  pos_ += n;
}

ByteReader ByteReader::sub(std::size_t n) { return ByteReader(bytes(n)); }

void ByteWriter::u16(std::uint16_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  out_.push_back(static_cast<std::uint8_t>(v >> 24));
  out_.push_back(static_cast<std::uint8_t>(v >> 16));
  out_.push_back(static_cast<std::uint8_t>(v >> 8));
  out_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  out_.insert(out_.end(), data.begin(), data.end());
}

void ByteWriter::text(const std::string& s) {
  out_.insert(out_.end(), s.begin(), s.end());
}

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > out_.size()) throw InvalidArgument("patch_u16 out of range");
  out_[offset] = static_cast<std::uint8_t>(v >> 8);
  out_[offset + 1] = static_cast<std::uint8_t>(v);
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  if (offset + 4 > out_.size()) throw InvalidArgument("patch_u32 out of range");
  out_[offset] = static_cast<std::uint8_t>(v >> 24);
  out_[offset + 1] = static_cast<std::uint8_t>(v >> 16);
  out_[offset + 2] = static_cast<std::uint8_t>(v >> 8);
  out_[offset + 3] = static_cast<std::uint8_t>(v);
}

}  // namespace htor
