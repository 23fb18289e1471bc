// IP prefixes (CIDR blocks) for both families.
//
// A Prefix is stored canonically: all bits beyond the prefix length are zero,
// which makes equality and hashing trivially correct.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "netbase/ip.hpp"

namespace htor {

class Prefix {
 public:
  /// 0.0.0.0/0.
  Prefix() : addr_(), len_(0) {}

  /// Canonicalizes: host bits of `addr` beyond `len` are cleared.
  /// Throws InvalidArgument when `len` exceeds the family's bit width.
  Prefix(const IpAddress& addr, std::uint8_t len);

  /// Parse "192.0.2.0/24" or "2001:db8::/32".  Throws ParseError.
  static Prefix parse(std::string_view text);
  static bool try_parse(std::string_view text, Prefix& out);

  const IpAddress& address() const { return addr_; }
  std::uint8_t length() const { return len_; }
  IpVersion version() const { return addr_.version(); }

  /// True when `addr` (same family) falls inside this prefix.
  bool contains(const IpAddress& addr) const;

  /// True when `other` (same family) is equal to or more specific than this.
  bool contains(const Prefix& other) const;

  std::string to_string() const;

  friend bool operator==(const Prefix& a, const Prefix& b) {
    return a.len_ == b.len_ && a.addr_ == b.addr_;
  }
  friend std::strong_ordering operator<=>(const Prefix& a, const Prefix& b) {
    if (auto c = a.addr_ <=> b.addr_; c != std::strong_ordering::equal) return c;
    return a.len_ <=> b.len_;
  }

 private:
  IpAddress addr_;
  std::uint8_t len_;
};

/// FNV-1a over the canonical bytes; suitable for unordered_map keys.
struct PrefixHash {
  std::size_t operator()(const Prefix& p) const {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint8_t b) {
      h ^= b;
      h *= 1099511628211ull;
    };
    mix(static_cast<std::uint8_t>(p.version()));
    mix(p.length());
    for (std::uint8_t b : p.address().bytes()) mix(b);
    return static_cast<std::size_t>(h);
  }
};

}  // namespace htor
