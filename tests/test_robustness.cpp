// Failure-injection tests: the wire decoders (BGP messages, path attributes,
// MRT records) must survive arbitrary truncation and byte corruption of
// valid inputs — either parsing successfully or throwing DecodeError, never
// crashing or looping.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bgp/message.hpp"
#include "core/pipeline.hpp"
#include "gen/internet.hpp"
#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"
#include "util/rng.hpp"

namespace htor {
namespace {

std::vector<std::uint8_t> valid_update_bytes() {
  bgp::PathAttributes attrs;
  attrs.origin = bgp::Origin::Igp;
  attrs.as_path = bgp::AsPath::sequence({64500, 3356, 1299});
  attrs.local_pref = 120;
  attrs.communities = {bgp::Community(3356, 100), bgp::Community(1299, 50)};
  const auto update = bgp::make_ipv6_update(attrs, IpAddress::parse("2001:db8::1"),
                                            {Prefix::parse("2001:db8:77::/48")});
  return bgp::encode_message(update);
}

std::vector<std::uint8_t> valid_mrt_bytes() {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(17));
  mrt::MrtWriter writer;
  std::size_t written = 0;
  for (const auto& rec : mrt::records_from_rib(net.collect(), 1, "rb", 0)) {
    writer.write(rec);
    if (++written >= 40) break;  // enough structure, small enough to sweep
  }
  return writer.take();
}

// Truncation at every possible length: parse or throw, never hang/crash.
TEST(Robustness, BgpMessageTruncationSweep) {
  const auto bytes = valid_update_bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    ByteReader r(cut);
    EXPECT_THROW(bgp::decode_message(r), DecodeError) << "at length " << len;
  }
  // The untruncated message still parses.
  ByteReader r(bytes);
  EXPECT_NO_THROW(bgp::decode_message(r));
}

TEST(Robustness, MrtTruncationSweep) {
  const auto bytes = valid_mrt_bytes();
  // Sweep cut points across the first few records densely, then stride.
  for (std::size_t len = 1; len < bytes.size(); len += (len < 4096 ? 7 : 997)) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    try {
      (void)mrt::read_all(cut);
      // Clean EOF is acceptable when the cut fell on a record boundary.
    } catch (const DecodeError&) {
      // Expected for mid-record cuts.
    }
  }
}

// Record *header* corruption mid-file (the earlier sweeps mostly land in
// bodies): the reader, over the buffer and over the file, must raise a clean
// DecodeError — never silently stop or hand back a partial RIB.
TEST(Robustness, TruncatedHeaderMidFileThrows) {
  auto bytes = valid_mrt_bytes();
  // 7 stray bytes after the last valid record: a header cut short.
  bytes.insert(bytes.end(), {0x12, 0x34, 0x56, 0x78, 0x00, 0x0d, 0x00});

  mrt::MrtStreamReader reader(bytes);
  EXPECT_THROW(
      {
        while (reader.next()) {
        }
      },
      DecodeError);
  ThreadPool pool;
  mrt::MrtStreamReader joined(bytes);
  EXPECT_THROW(mrt::rib_from_stream(joined, pool), DecodeError);

  // Same file on disk through the streaming reader.
  const std::string path = ::testing::TempDir() + "/trunc_header.mrt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out);
    out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  }
  EXPECT_THROW(mrt::rib_from_stream(path, pool), DecodeError);
  std::remove(path.c_str());
}

TEST(Robustness, GarbageHeaderLengthMidFileThrows) {
  auto bytes = valid_mrt_bytes();
  // A structurally complete header whose length field points far past EOF.
  bytes.insert(bytes.end(),
               {0x00, 0x00, 0x00, 0x01, 0x00, 0x0d, 0x00, 0x02, 0xff, 0xff, 0xff, 0xfe});

  mrt::MrtStreamReader reader(bytes);
  EXPECT_THROW(
      {
        while (reader.next()) {
        }
      },
      DecodeError);
  ThreadPool pool;
  mrt::MrtStreamReader joined(bytes);
  EXPECT_THROW(mrt::rib_from_stream(joined, pool), DecodeError);

  const std::string path = ::testing::TempDir() + "/garbage_header.mrt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out);
    out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  }
  EXPECT_THROW(mrt::rib_from_stream(path, pool), DecodeError);
  std::remove(path.c_str());
}

// Regression for the census fail-fast path: a RIB dump truncated mid-record
// must abort the load -> parse -> join pipeline with DecodeError instead of
// yielding a partially parsed RIB.  This is the exact code path `hybridtor
// census` runs on its <rib.mrt> argument, including the on-disk round trip.
TEST(Robustness, TruncatedRibFileFailsFast) {
  const auto bytes = valid_mrt_bytes();
  const std::string path = ::testing::TempDir() + "/truncated_rib.mrt";

  // A cut inside the second record's body: the MRT framing (12-byte header
  // plus declared length) makes the truncation detectable.
  const std::size_t cut = bytes.size() - 5;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out);
    out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(cut));
  }

  ASSERT_EQ(std::filesystem::file_size(path), cut);
  // Inline and with workers alike.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(jobs);
    EXPECT_THROW(core::load_rib(path, pool), DecodeError);
  }

  std::remove(path.c_str());
}

// Single-byte corruption: every outcome must be a clean parse or DecodeError.
class BgpCorruption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BgpCorruption, SingleByteFlips) {
  const auto original = valid_update_bytes();
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.index(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    ByteReader r(bytes);
    try {
      const auto msg = bgp::decode_message(r);
      (void)msg;  // a benign flip (e.g. inside an ASN) may still parse
    } catch (const DecodeError&) {
    } catch (const InvalidArgument&) {
      // some flips hit semantic validation instead of framing
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BgpCorruption, ::testing::Values(1, 2, 3));

class MrtCorruption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MrtCorruption, SingleByteFlips) {
  const auto original = valid_mrt_bytes();
  Rng rng(GetParam());
  for (int trial = 0; trial < 120; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.index(bytes.size());
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
    mrt::MrtStreamReader reader(bytes);
    try {
      std::size_t records = 0;
      while (const auto raw = reader.next()) {
        (void)mrt::decode_record_body(raw->timestamp, raw->type, raw->subtype, raw->body);
        // Defensive bound: corruption must not manufacture unbounded output.
        ASSERT_LT(++records, 100000u);
      }
    } catch (const DecodeError&) {
    } catch (const InvalidArgument&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MrtCorruption, ::testing::Values(4, 5, 6));

// The RIB join layer on top must show the same discipline.
TEST(Robustness, RibJoinOnCorruptedDumps) {
  const auto original = valid_mrt_bytes();
  Rng rng(9);
  for (int trial = 0; trial < 60; ++trial) {
    auto bytes = original;
    for (int flips = 0; flips < 4; ++flips) {
      bytes[rng.index(bytes.size())] ^= static_cast<std::uint8_t>(rng.uniform(1, 255));
    }
    try {
      ThreadPool pool;
      mrt::MrtStreamReader stream(bytes);
      const auto rib = mrt::rib_from_stream(stream, pool);
      (void)rib;
    } catch (const DecodeError&) {
    } catch (const InvalidArgument&) {
    }
  }
}

// Garbage from nothing: random byte soup must never parse as a full BGP
// message stream without the all-ones marker.
TEST(Robustness, RandomBytesRejected) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> bytes(64);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    bytes[0] = 0xfe;  // guarantee a broken marker
    ByteReader r(bytes);
    EXPECT_THROW(bgp::decode_message(r), DecodeError);
  }
}

}  // namespace
}  // namespace htor
