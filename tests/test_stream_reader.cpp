// Tests for the streaming MRT ingest path: framing equivalence with the
// in-memory reader, byte-identical RIBs at any pool size and batch size, and
// clean DecodeError on truncated or garbage framing — never a partial RIB.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <variant>

#include "gen/internet.hpp"
#include "gen/updates.hpp"
#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"

namespace htor::mrt {
namespace {

/// A real multi-record TABLE_DUMP_V2 dump from the synthetic collector.
const std::vector<std::uint8_t>& sample_dump() {
  static const std::vector<std::uint8_t> bytes = [] {
    const auto net = gen::SyntheticInternet::generate(gen::small_params(21));
    MrtWriter writer;
    for (const auto& rec : records_from_rib(net.collect(), 1, "stream", 1281052800u)) {
      writer.write(rec);
    }
    return writer.take();
  }();
  return bytes;
}

std::string write_temp(const std::vector<std::uint8_t>& bytes, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  EXPECT_TRUE(out);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<long>(bytes.size()));
  return path;
}

TEST(MrtStreamReader, FramesMatchInMemoryReader) {
  const auto& bytes = sample_dump();
  const std::string path = write_temp(bytes, "stream_frames.mrt");

  const auto records = read_all(bytes);
  MrtStreamReader stream(path);
  std::size_t i = 0;
  while (auto framed = stream.next()) {
    ASSERT_LT(i, records.size());
    const Record decoded =
        decode_record_body(framed->timestamp, framed->type, framed->subtype, framed->body);
    EXPECT_EQ(decoded, records[i]) << "record " << i;
    ++i;
  }
  EXPECT_EQ(i, records.size());
  EXPECT_EQ(stream.records_read(), records.size());
  EXPECT_EQ(stream.bytes_read(), bytes.size());
  EXPECT_EQ(stream.file_size(), bytes.size());
  std::remove(path.c_str());
}

TEST(MrtStreamReader, MissingFileThrows) {
  EXPECT_THROW(MrtStreamReader("/nonexistent/nope.mrt"), Error);
  ThreadPool pool;
  EXPECT_THROW(rib_from_stream("/nonexistent/nope.mrt", pool), Error);
}

TEST(MrtStreamReader, EmptyFileIsCleanEof) {
  const std::string path = write_temp({}, "stream_empty.mrt");
  MrtStreamReader stream(path);
  EXPECT_FALSE(stream.next().has_value());
  ThreadPool pool;
  EXPECT_EQ(rib_from_stream(path, pool).size(), 0u);
  std::remove(path.c_str());
}

// A header cut short mid-file (valid records, then 5 stray bytes) must fail
// with DecodeError, not be silently dropped as EOF.
TEST(MrtStreamReader, TruncatedHeaderMidFileThrows) {
  const auto& all = sample_dump();
  // Find a record boundary roughly halfway into the dump, keep the records
  // before it, and append 5 stray bytes — a header cut short mid-file.
  std::size_t boundary = 0;
  MrtReader probe(all);
  while (boundary < all.size() / 2 && probe.next()) {
    boundary = all.size() - probe.remaining();
  }
  ASSERT_GT(boundary, 0u);
  ASSERT_LT(boundary, all.size());
  std::vector<std::uint8_t> aligned(all.begin(), all.begin() + static_cast<long>(boundary));
  aligned.insert(aligned.end(), {0x4c, 0x3a, 0x5e, 0x00, 0x00});  // 5 of 12 header bytes

  const std::string path = write_temp(aligned, "stream_trunc_header.mrt");
  MrtStreamReader stream(path);
  EXPECT_THROW(
      {
        while (stream.next()) {
        }
      },
      DecodeError);
  ThreadPool pool(4);
  EXPECT_THROW(rib_from_stream(path, pool), DecodeError);
  std::remove(path.c_str());
}

// A garbage header whose length field overruns the file must fail at that
// record, without over-allocating.
TEST(MrtStreamReader, GarbageLengthFieldThrows) {
  auto bytes = sample_dump();
  // Append a header declaring a body far past EOF.
  const std::vector<std::uint8_t> garbage = {0x00, 0x00, 0x00, 0x01, 0x00, 0x0d,
                                             0x00, 0x02, 0xff, 0xff, 0xff, 0xff};
  bytes.insert(bytes.end(), garbage.begin(), garbage.end());
  const std::string path = write_temp(bytes, "stream_garbage_len.mrt");

  MrtStreamReader stream(path);
  EXPECT_THROW(
      {
        while (stream.next()) {
        }
      },
      DecodeError);
  ThreadPool pool;
  EXPECT_THROW(rib_from_stream(path, pool), DecodeError);
  std::remove(path.c_str());
}

// rib_from_stream == rib_from_records, route for route, at several pool
// sizes and batch sizes (including batches far smaller than the record
// count, forcing many flushes).  The two joins batch and merge differently —
// the streaming one per fixed record batch, the in-memory one over a fixed
// shard plan — so each is the oracle for the other's merge order; batch 1
// makes every streaming merge trivial.
/// The routes of `bytes` joined without the library's placement code: every
/// record in file order, each RIB record against the peer table before it.
std::vector<ObservedRoute> plain_join(const std::vector<std::uint8_t>& bytes) {
  std::vector<ObservedRoute> routes;
  const PeerIndexTable* peers = nullptr;
  const std::vector<Record> records = read_all(bytes);
  for (const Record& record : records) {
    if (const auto* table = std::get_if<PeerIndexTable>(&record.body)) peers = table;
    if (const auto* rib = std::get_if<RibPrefixRecord>(&record.body)) {
      if (peers == nullptr) {
        ADD_FAILURE() << "RIB record before any peer table";
        return {};
      }
      join_rib_record(*rib, *peers, routes);
    }
  }
  return routes;
}

// Both ingest paths place routes through ObservedRib::append, so each is
// checked against a join built here, route by route and in order.
TEST(RibFromStream, IdenticalToInMemoryJoin) {
  const auto& bytes = sample_dump();
  const std::string path = write_temp(bytes, "stream_equiv.mrt");
  const std::vector<ObservedRoute> reference = plain_join(bytes);
  std::size_t reference_v4 = 0;
  for (const ObservedRoute& route : reference) reference_v4 += route.af == IpVersion::V4;
  ASSERT_GT(reference_v4, 0u);
  ASSERT_LT(reference_v4, reference.size());

  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(jobs);
    const ObservedRib in_memory = rib_from_records(read_all(bytes), pool);
    EXPECT_EQ(in_memory.routes(), reference) << "jobs=" << jobs;
    EXPECT_EQ(in_memory.size_of(IpVersion::V4), reference_v4) << "jobs=" << jobs;
    for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
      const ObservedRib streamed = rib_from_stream(path, pool, batch);
      ASSERT_EQ(streamed.size(), reference.size()) << "jobs=" << jobs << " batch=" << batch;
      EXPECT_EQ(streamed.size_of(IpVersion::V4), reference_v4);
      EXPECT_EQ(streamed.size_of(IpVersion::V6), reference.size() - reference_v4);
      for (std::size_t i = 0; i < reference.size(); ++i) {
        ASSERT_EQ(streamed.routes()[i], reference[i])
            << "route " << i << " jobs=" << jobs << " batch=" << batch;
      }
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------ next_update

/// A file interleaving the TABLE_DUMP_V2 dump with a BGP4MP update stream —
/// the shape `follow` consumes when a collector archive mixes both.
std::vector<std::uint8_t> mixed_dump(std::size_t events) {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(21));
  const auto rib = net.collect();
  MrtWriter writer;
  for (const auto& rec : records_from_rib(rib, 1, "stream", 1281052800u)) writer.write(rec);
  gen::UpdateScheduleParams params;
  params.events = events;
  for (const auto& rec : gen::synthesize_updates(rib, params)) writer.write(rec);
  return writer.take();
}

TEST(MrtStreamReaderUpdates, NextUpdateYieldsOnlyBgp4mpFrames) {
  const auto bytes = mixed_dump(25);
  const std::string path = write_temp(bytes, "stream_mixed.mrt");

  // Ground truth from the in-memory reader: which records are updates.
  const auto records = read_all(bytes);
  std::size_t expected_updates = 0;
  for (const auto& rec : records) {
    if (std::holds_alternative<Bgp4mpMessage>(rec.body)) ++expected_updates;
  }
  ASSERT_GT(expected_updates, 0u);
  ASSERT_LT(expected_updates, records.size());  // the RIB frames are really there

  MrtStreamReader stream(path);
  std::size_t yielded = 0;
  while (auto frame = stream.next_update()) {
    const Record decoded =
        decode_record_body(frame->timestamp, frame->type, frame->subtype, frame->body);
    EXPECT_TRUE(std::holds_alternative<Bgp4mpMessage>(decoded.body)) << "frame " << yielded;
    ++yielded;
  }
  EXPECT_EQ(yielded, expected_updates);
  EXPECT_EQ(stream.updates_skipped(), records.size() - expected_updates);
  EXPECT_EQ(stream.records_read(), records.size());
  std::remove(path.c_str());
}

TEST(MrtStreamReaderUpdates, PureRibFileYieldsNoUpdates) {
  const auto& bytes = sample_dump();
  const std::string path = write_temp(bytes, "stream_pure_rib.mrt");
  MrtStreamReader stream(path);
  EXPECT_FALSE(stream.next_update().has_value());
  EXPECT_EQ(stream.updates_skipped(), read_all(bytes).size());
  std::remove(path.c_str());
}

// Framing errors surface through next_update() exactly as through next():
// a header cut short mid-stream throws DecodeError instead of reading EOF.
TEST(MrtStreamReaderUpdates, TruncatedUpdateStreamThrows) {
  auto bytes = mixed_dump(25);
  bytes.resize(bytes.size() - 7);  // cut inside the final update record
  const std::string path = write_temp(bytes, "stream_trunc_update.mrt");
  MrtStreamReader stream(path);
  EXPECT_THROW(
      {
        while (stream.next_update()) {
        }
      },
      DecodeError);
  std::remove(path.c_str());
}

// An orphan RIB record (no PEER_INDEX_TABLE yet) fails identically to the
// in-memory path.
TEST(RibFromStream, RejectsRibBeforePeerTable) {
  RibPrefixRecord rib;
  rib.prefix = Prefix::parse("10.0.0.0/8");
  rib.entries.push_back({});
  MrtWriter w;
  w.write(Record{0, rib});
  const std::string path = write_temp(w.take(), "stream_orphan.mrt");
  ThreadPool pool;
  EXPECT_THROW(rib_from_stream(path, pool), DecodeError);
  std::remove(path.c_str());
}

// Truncating anywhere inside the dump must never yield a partial RIB: every
// cut either streams cleanly (cut on a record boundary) or throws.
TEST(RibFromStream, TruncationSweepNeverYieldsPartialRib) {
  const auto& bytes = sample_dump();
  ThreadPool pool(2);
  for (std::size_t len = 1; len < bytes.size(); len += (len < 4096 ? 13 : 991)) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    const std::string path = write_temp(cut, "stream_cut.mrt");
    std::optional<ObservedRib> streamed;
    try {
      streamed = rib_from_stream(path, pool);
    } catch (const DecodeError&) {
      // Expected for mid-record cuts.
    }
    if (streamed.has_value()) {
      // A clean streamed parse is only legal when the cut fell on a record
      // boundary — the in-memory path must then parse too and agree.  The
      // reference runs OUTSIDE the try above so a streaming-accepts /
      // in-memory-rejects divergence fails loudly instead of being
      // swallowed by the catch.
      ObservedRib in_memory;
      ASSERT_NO_THROW(in_memory = rib_from_records(read_all(cut), pool)) << "cut at " << len;
      EXPECT_EQ(streamed->size(), in_memory.size()) << "cut at " << len;
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace htor::mrt
