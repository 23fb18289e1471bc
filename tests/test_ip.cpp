// Unit tests for IP address and prefix parsing/formatting, including the
// RFC 5952 canonical text form for IPv6.
#include <gtest/gtest.h>

#include "netbase/ip.hpp"
#include "netbase/prefix.hpp"

namespace htor {
namespace {

TEST(Ipv4, ParseAndFormat) {
  const auto a = IpAddress::parse("192.0.2.1");
  EXPECT_TRUE(a.is_v4());
  EXPECT_EQ(a.to_string(), "192.0.2.1");
  EXPECT_EQ(a.v4_value(), 0xc0000201u);
  EXPECT_EQ(IpAddress::v4(0x0a000001u).to_string(), "10.0.0.1");
}

TEST(Ipv4, RejectsMalformed) {
  IpAddress out;
  EXPECT_FALSE(IpAddress::try_parse("192.0.2", out));
  EXPECT_FALSE(IpAddress::try_parse("192.0.2.256", out));
  EXPECT_FALSE(IpAddress::try_parse("192.0.2.1.5", out));
  EXPECT_FALSE(IpAddress::try_parse("192.0.2.a", out));
  EXPECT_FALSE(IpAddress::try_parse("0192.0.2.1", out));  // over-long octet
  EXPECT_FALSE(IpAddress::try_parse("", out));
  EXPECT_THROW(IpAddress::parse("not-an-ip"), ParseError);
}

// Parse -> format must be the RFC 5952 canonical form.
struct V6Case {
  const char* input;
  const char* canonical;
};

class Ipv6Canonical : public ::testing::TestWithParam<V6Case> {};

TEST_P(Ipv6Canonical, ParseFormat) {
  const auto& c = GetParam();
  const auto addr = IpAddress::parse(c.input);
  EXPECT_TRUE(addr.is_v6());
  EXPECT_EQ(addr.to_string(), c.canonical);
  // Canonical text re-parses to the same address.
  EXPECT_EQ(IpAddress::parse(addr.to_string()), addr);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Ipv6Canonical,
    ::testing::Values(
        V6Case{"2001:db8::1", "2001:db8::1"},
        V6Case{"2001:0db8:0000:0000:0000:0000:0000:0001", "2001:db8::1"},
        V6Case{"::", "::"},
        V6Case{"::1", "::1"},
        V6Case{"1::", "1::"},
        V6Case{"2001:DB8::A", "2001:db8::a"},
        V6Case{"fe80:0:0:0:1:0:0:1", "fe80::1:0:0:1"},      // leftmost longest run
        V6Case{"2001:db8:0:1:1:1:1:1", "2001:db8:0:1:1:1:1:1"},  // no run >= 2
        V6Case{"::ffff:192.0.2.128", "::ffff:c000:280"},    // embedded IPv4
        V6Case{"64:ff9b::192.0.2.33", "64:ff9b::c000:221"},
        V6Case{"a:b:c:d:e:f:1:2", "a:b:c:d:e:f:1:2"},
        V6Case{"0:0:1::", "0:0:1::"},
        V6Case{"2001:db8::", "2001:db8::"}));

TEST(Ipv6, RejectsMalformed) {
  IpAddress out;
  EXPECT_FALSE(IpAddress::try_parse("2001:db8", out));
  EXPECT_FALSE(IpAddress::try_parse("1:2:3:4:5:6:7:8:9", out));
  EXPECT_FALSE(IpAddress::try_parse("1::2::3", out));          // two gaps
  EXPECT_FALSE(IpAddress::try_parse("1:2:3:4:5:6:7", out));    // too short, no gap
  EXPECT_FALSE(IpAddress::try_parse("12345::", out));          // group too long
  EXPECT_FALSE(IpAddress::try_parse("1:2:3:4:5:6:7:8::", out));  // gap with 8 groups
  EXPECT_FALSE(IpAddress::try_parse(":::", out));
  EXPECT_FALSE(IpAddress::try_parse("g::1", out));
}

TEST(IpAddress, BitAccess) {
  const auto a = IpAddress::v4(0x80000001u);
  EXPECT_TRUE(a.bit(0));
  EXPECT_FALSE(a.bit(1));
  EXPECT_TRUE(a.bit(31));
  EXPECT_THROW(a.bit(32), InvalidArgument);
  const auto b = IpAddress::parse("8000::");
  EXPECT_TRUE(b.bit(0));
  EXPECT_FALSE(b.bit(127));
}

TEST(IpAddress, Masking) {
  const auto a = IpAddress::parse("192.0.2.255");
  EXPECT_EQ(a.masked(24).to_string(), "192.0.2.0");
  EXPECT_EQ(a.masked(0).to_string(), "0.0.0.0");
  EXPECT_EQ(a.masked(32), a);
  EXPECT_EQ(a.masked(25).to_string(), "192.0.2.128");
  EXPECT_THROW(a.masked(33), InvalidArgument);

  const auto b = IpAddress::parse("2001:db8:ffff::1");
  EXPECT_EQ(b.masked(32).to_string(), "2001:db8::");
  EXPECT_EQ(b.masked(48).to_string(), "2001:db8:ffff::");
}

TEST(IpAddress, CommonPrefixLen) {
  const auto a = IpAddress::parse("10.0.0.0");
  const auto b = IpAddress::parse("10.0.1.0");
  EXPECT_EQ(a.common_prefix_len(b), 23);
  EXPECT_EQ(a.common_prefix_len(a), 32);
  const auto v6 = IpAddress::parse("2001:db8::");
  EXPECT_THROW(a.common_prefix_len(v6), InvalidArgument);
}

TEST(IpAddress, OrderingGroupsByFamily) {
  const auto v4 = IpAddress::parse("255.255.255.255");
  const auto v6 = IpAddress::parse("::");
  EXPECT_LT(v4, v6);  // family ordinal dominates
  EXPECT_LT(IpAddress::parse("10.0.0.1"), IpAddress::parse("10.0.0.2"));
}

TEST(IpAddress, RawByteConstructor) {
  const std::uint8_t raw4[4] = {192, 0, 2, 1};
  EXPECT_EQ(IpAddress(IpVersion::V4, raw4).to_string(), "192.0.2.1");
  EXPECT_THROW(IpAddress(IpVersion::V6, raw4), InvalidArgument);
}

TEST(Prefix, ParseAndCanonicalize) {
  const auto p = Prefix::parse("192.0.2.129/25");
  EXPECT_EQ(p.to_string(), "192.0.2.128/25");  // host bits cleared
  EXPECT_EQ(p.length(), 25);
  const auto p6 = Prefix::parse("2001:db8:1234:ffff::/48");
  EXPECT_EQ(p6.to_string(), "2001:db8:1234::/48");
}

TEST(Prefix, ParseErrors) {
  Prefix out;
  EXPECT_FALSE(Prefix::try_parse("192.0.2.0", out));      // no length
  EXPECT_FALSE(Prefix::try_parse("192.0.2.0/33", out));   // too long
  EXPECT_FALSE(Prefix::try_parse("2001:db8::/129", out));
  EXPECT_FALSE(Prefix::try_parse("x/8", out));
  EXPECT_THROW(Prefix::parse("192.0.2.0/"), ParseError);
}

TEST(Prefix, ContainsAddress) {
  const auto p = Prefix::parse("10.1.0.0/16");
  EXPECT_TRUE(p.contains(IpAddress::parse("10.1.2.3")));
  EXPECT_FALSE(p.contains(IpAddress::parse("10.2.0.0")));
  EXPECT_FALSE(p.contains(IpAddress::parse("2001:db8::1")));  // family mismatch
}

TEST(Prefix, ContainsPrefix) {
  const auto p = Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(p.contains(Prefix::parse("10.1.0.0/16")));
  EXPECT_TRUE(p.contains(p));
  EXPECT_FALSE(p.contains(Prefix::parse("0.0.0.0/0")));  // less specific
  EXPECT_FALSE(p.contains(Prefix::parse("11.0.0.0/16")));
}

TEST(Prefix, DefaultRouteContainsEverything) {
  const Prefix def;  // 0.0.0.0/0
  EXPECT_TRUE(def.contains(IpAddress::parse("255.255.255.255")));
  EXPECT_TRUE(def.contains(Prefix::parse("192.0.2.0/24")));
}

}  // namespace
}  // namespace htor
