// Unit tests for the util module: byte readers/writers, string helpers,
// deterministic RNG, stateless hashing, and the report table printer.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace htor {
namespace {

TEST(ByteWriter, BigEndianLayout) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607u);
  w.u64(0x08090a0b0c0d0e0full);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 15u);
  EXPECT_EQ(d[0], 0x01);
  EXPECT_EQ(d[1], 0x02);
  EXPECT_EQ(d[2], 0x03);
  EXPECT_EQ(d[3], 0x04);
  EXPECT_EQ(d[6], 0x07);
  EXPECT_EQ(d[7], 0x08);
  EXPECT_EQ(d[14], 0x0f);
}

TEST(ByteReader, RoundTripsWriter) {
  ByteWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(0xdeadbeefu);
  w.u64(0x1122334455667788ull);
  w.text("abc");
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x1122334455667788ull);
  EXPECT_EQ(r.text(3), "abc");
  EXPECT_TRUE(r.exhausted());
}

TEST(ByteReader, UnderrunThrows) {
  const std::uint8_t data[2] = {1, 2};
  ByteReader r(data);
  EXPECT_THROW(r.u32(), DecodeError);
  EXPECT_EQ(r.u16(), 0x0102);  // position unchanged by the failed read
  EXPECT_THROW(r.u8(), DecodeError);
}

TEST(ByteReader, SubReaderConsumesParent) {
  ByteWriter w;
  w.u32(0xaabbccddu);
  w.u16(0x0102);
  ByteReader r(w.data());
  ByteReader sub = r.sub(4);
  EXPECT_EQ(sub.u32(), 0xaabbccddu);
  EXPECT_TRUE(sub.exhausted());
  EXPECT_EQ(r.u16(), 0x0102);
}

TEST(ByteWriter, PatchFieldsInPlace) {
  ByteWriter w;
  w.u16(0);
  w.u32(0);
  w.u8(9);
  w.patch_u16(0, 0x1234);
  w.patch_u32(2, 0x55667788u);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0x55667788u);
  EXPECT_THROW(w.patch_u16(6, 1), InvalidArgument);
}

// A stream opens a directory and reads it as empty; load_bytes refuses it,
// and a missing file, naming the path either way.
TEST(LoadBytes, RoundTripsAndRefusesWhatIsNoFile) {
  const std::string dir = ::testing::TempDir() + "/htor_load_bytes";
  std::filesystem::create_directories(dir);
  const std::vector<std::uint8_t> bytes = {0, 1, 2, 0xff};
  save_bytes(dir + "/f.bin", bytes);
  EXPECT_EQ(load_bytes(dir + "/f.bin"), bytes);
  for (const std::string& path : {dir, dir + "/missing.bin"}) {
    try {
      (void)load_bytes(path);
      ADD_FAILURE() << "load_bytes accepted " << path;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("'" + path + "'"), std::string::npos) << e.what();
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\n x \r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsSkipsRuns) {
  auto parts = split_ws("  one\t two  three ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("0", v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616", v));  // overflow
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("12a", v));
  EXPECT_FALSE(parse_u64("-1", v));
}

// The single strict ASN parse shared by the CLI arguments, the query
// daemon's URL routing, and the RPSL aut-num parser.
TEST(Strings, ParseAsn) {
  Asn asn = 7;
  EXPECT_TRUE(parse_asn("0", asn));
  EXPECT_EQ(asn, 0u);
  EXPECT_TRUE(parse_asn("3356", asn));
  EXPECT_EQ(asn, 3356u);
  EXPECT_TRUE(parse_asn("4294967295", asn));  // RFC 6793 ceiling
  EXPECT_EQ(asn, 4294967295u);

  asn = 7;
  EXPECT_FALSE(parse_asn("4294967296", asn));  // one past the ceiling
  EXPECT_FALSE(parse_asn("", asn));
  EXPECT_FALSE(parse_asn("12x", asn));
  EXPECT_FALSE(parse_asn("-1", asn));
  EXPECT_FALSE(parse_asn("AS3356", asn));  // the textual prefix is the caller's job
  EXPECT_FALSE(parse_asn("1.0", asn));     // asdot is not accepted
  EXPECT_EQ(asn, 7u);  // failures never clobber the out-parameter
}

TEST(Strings, ContainsCi) {
  EXPECT_TRUE(contains_ci("Routes Learned From CUSTOMERS", "from customer"));
  EXPECT_FALSE(contains_ci("peer routes", "customer"));
  EXPECT_TRUE(contains_ci("anything", ""));
}

TEST(Strings, Percentages) {
  EXPECT_EQ(fmt_pct(1, 8, 1), "12.5%");
  EXPECT_EQ(fmt_pct(0, 0), "n/a");
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(0, 1000), b.uniform(0, 1000));
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
  EXPECT_THROW(rng.uniform(5, 4), InvalidArgument);
  EXPECT_THROW(rng.index(0), InvalidArgument);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedRespectsZeroWeights) {
  Rng rng(2);
  const double weights[3] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.weighted(weights), 1u);
  }
  const double none[2] = {0.0, 0.0};
  EXPECT_THROW(rng.weighted(none), InvalidArgument);
}

TEST(Rng, WeightedIsRoughlyProportional) {
  Rng rng(3);
  const double weights[2] = {1.0, 3.0};
  int hits[2] = {0, 0};
  for (int i = 0; i < 10000; ++i) ++hits[rng.weighted(weights)];
  EXPECT_GT(hits[1], 2 * hits[0]);
}

TEST(Hash, DeterministicAndSpread) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
  const double u = hash_unit(hash_mix(7, 9));
  EXPECT_GE(u, 0.0);
  EXPECT_LT(u, 1.0);
  EXPECT_EQ(hash_unit(hash_mix(7, 9)), u);
}

// Known answers: the generator derives TE overrides and geo tags from these
// bits, so any change to a primitive changes `generate` output.
TEST(Hash, KnownAnswers) {
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(hash_mix(7, 9), 0x86296af7beb9f0f7ull);
  EXPECT_EQ(hash_unit(hash_mix(7, 9)), 0x1.aaaa89f737f24p-2);
}

TEST(Hash, UnitIsApproximatelyUniform) {
  double sum = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) sum += hash_unit(i);
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Table, AlignedOutputAndCsv) {
  Table t({"name", "value"});
  t.row({"a", "1"});
  t.row({"long-name", "22"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("long-name"), std::string::npos);
  std::ostringstream csv;
  t.print_csv(csv);
  EXPECT_NE(csv.str().find("a,1"), std::string::npos);
  EXPECT_THROW(t.row({"only-one"}), InvalidArgument);
  EXPECT_THROW(Table({}), InvalidArgument);
}

}  // namespace
}  // namespace htor
