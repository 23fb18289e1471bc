// Tests for the MRT reader, MrtStreamReader: its file and buffer sources
// frame the same bytes identically, rib_from_stream gives the RIB of a plain
// single-threaded join at any pool size and batch size, and truncated or
// garbage framing fails with a clean DecodeError — never a partial RIB.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
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

TEST(MrtStreamReader, FramesDecodeToTheWrittenRecords) {
  const auto net = gen::SyntheticInternet::generate(gen::small_params(21));
  const auto records = records_from_rib(net.collect(), 1, "stream", 1281052800u);
  MrtWriter writer;
  for (const auto& rec : records) writer.write(rec);
  const std::string path = write_temp(writer.data(), "stream_frames.mrt");

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
  EXPECT_EQ(stream.bytes_read(), writer.data().size());
  EXPECT_EQ(stream.source_size(), writer.data().size());
  EXPECT_EQ(read_all(writer.data()), records);
  std::remove(path.c_str());
}

/// What one source made of a byte string: its frames up to the end or the
/// first DecodeError, the error's message, and the records read before it.
struct Framing {
  std::vector<RawFramedRecord> frames;
  std::optional<std::string> error;
  std::uint64_t records_read = 0;
};

Framing frame_all(MrtStreamReader& stream) {
  Framing out;
  try {
    while (auto frame = stream.next()) out.frames.push_back(std::move(*frame));
  } catch (const DecodeError& e) {
    out.error = e.what();
  }
  out.records_read = stream.records_read();
  return out;
}

// The two sources run the same next(): at every cut of a dump they give the
// same frames, or fail with the same DecodeError at the same record (the
// messages differ only in how they name the source).  Any other exception
// from the buffer source escapes and fails the test.
TEST(MrtStreamReader, FileAndBufferSourcesAgreeAtEveryCut) {
  auto bytes = sample_dump();
  // A garbage length field at the end, so the sweep also crosses a header
  // whose body overruns the source.
  bytes.insert(bytes.end(), {0x00, 0x00, 0x00, 0x01, 0x00, 0x0d, 0x00, 0x02, 0x00, 0x00, 0x01, 0x00});
  std::size_t cuts = 0;
  std::size_t failed = 0;
  for (std::size_t len = 0; len <= bytes.size();
       len += (len < 4096 || len + 4096 > bytes.size() ? 5 : 997)) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    const std::string path = write_temp(cut, "stream_sources.mrt");
    MrtStreamReader from_file(path);
    MrtStreamReader from_buffer(cut);
    const Framing file = frame_all(from_file);
    const Framing buffer = frame_all(from_buffer);
    std::remove(path.c_str());

    ASSERT_EQ(file.frames.size(), buffer.frames.size()) << "cut at " << len;
    for (std::size_t i = 0; i < file.frames.size(); ++i) {
      const RawFramedRecord& a = file.frames[i];
      const RawFramedRecord& b = buffer.frames[i];
      ASSERT_TRUE(a.timestamp == b.timestamp && a.type == b.type && a.subtype == b.subtype &&
                  a.body == b.body)
          << "frame " << i << ", cut at " << len;
    }
    EXPECT_EQ(file.records_read, buffer.records_read) << "cut at " << len;
    EXPECT_EQ(from_file.bytes_read(), from_buffer.bytes_read()) << "cut at " << len;
    ASSERT_EQ(file.error.has_value(), buffer.error.has_value()) << "cut at " << len;
    if (file.error) {
      ++failed;
      std::string named = *file.error;
      const std::string quoted = "'" + path + "'";
      for (std::size_t at = named.find(quoted); at != std::string::npos;
           at = named.find(quoted)) {
        named.replace(at, quoted.size(), "the buffer");
      }
      EXPECT_EQ(named, *buffer.error) << "cut at " << len;
    }
    ++cuts;
  }
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, cuts);  // record-boundary cuts frame cleanly
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
  MrtStreamReader probe(all);
  while (boundary < all.size() / 2 && probe.next()) boundary = probe.bytes_read();
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

/// The routes of `bytes` joined without the library's batching and
/// placement code: every record framed by MrtStreamReader on this thread
/// and decoded in file order, each RIB record joined against the peer table
/// before it.  Throws DecodeError where the dump is malformed.
std::vector<ObservedRoute> plain_join(const std::vector<std::uint8_t>& bytes) {
  std::vector<ObservedRoute> routes;
  std::optional<PeerIndexTable> peers;
  MrtStreamReader stream(bytes);
  while (const auto raw = stream.next()) {
    Record record = decode_record_body(raw->timestamp, raw->type, raw->subtype, raw->body);
    if (auto* table = std::get_if<PeerIndexTable>(&record.body)) peers = std::move(*table);
    if (const auto* rib = std::get_if<RibPrefixRecord>(&record.body)) {
      if (!peers) throw DecodeError("RIB record before any PEER_INDEX_TABLE");
      join_rib_record(*rib, *peers, routes);
    }
  }
  return routes;
}

// rib_from_stream, over the file and over the buffer, equals the plain join
// route for route, at several pool sizes and batch sizes (batch 7 forces
// many flushes; batch 1 makes every merge trivial).
TEST(RibFromStream, MatchesThePlainJoin) {
  const auto& bytes = sample_dump();
  const std::string path = write_temp(bytes, "stream_equiv.mrt");
  const std::vector<ObservedRoute> reference = plain_join(bytes);
  std::size_t reference_v4 = 0;
  for (const ObservedRoute& route : reference) reference_v4 += route.af == IpVersion::V4;
  ASSERT_GT(reference_v4, 0u);
  ASSERT_LT(reference_v4, reference.size());

  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(jobs);
    for (std::size_t batch : {std::size_t{1}, std::size_t{7}, std::size_t{0}}) {
      MrtStreamReader buffer(bytes);
      for (const ObservedRib& streamed :
           {rib_from_stream(path, pool, batch), rib_from_stream(buffer, pool, batch)}) {
        ASSERT_EQ(streamed.size(), reference.size()) << "jobs=" << jobs << " batch=" << batch;
        EXPECT_EQ(streamed.size_of(IpVersion::V4), reference_v4);
        EXPECT_EQ(streamed.size_of(IpVersion::V6), reference.size() - reference_v4);
        for (std::size_t i = 0; i < reference.size(); ++i) {
          ASSERT_EQ(streamed.routes()[i], reference[i])
              << "route " << i << " jobs=" << jobs << " batch=" << batch;
        }
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

// An orphan RIB record (no PEER_INDEX_TABLE yet) is a DecodeError.
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
// cut either streams cleanly (cut on a record boundary) or throws, and the
// plain join agrees on which, and on the routes.
TEST(RibFromStream, TruncationSweepNeverYieldsPartialRib) {
  const auto& bytes = sample_dump();
  // Strided cuts, plus every 16th record boundary, where a cut is clean.
  std::set<std::size_t> cuts;
  for (std::size_t len = 1; len < bytes.size(); len += (len < 4096 ? 13 : 991)) cuts.insert(len);
  MrtStreamReader probe(bytes);
  while (probe.next()) {
    if (probe.records_read() % 16 == 1) cuts.insert(probe.bytes_read());
  }
  ThreadPool pool(2);
  std::size_t clean = 0;
  for (const std::size_t len : cuts) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    const std::string path = write_temp(cut, "stream_cut.mrt");
    std::optional<ObservedRib> streamed;
    try {
      streamed = rib_from_stream(path, pool);
    } catch (const DecodeError&) {
      // Expected for mid-record cuts.
    }
    std::remove(path.c_str());
    // The reference runs OUTSIDE the try above, so a streaming-accepts /
    // plain-rejects divergence fails loudly instead of being swallowed.
    if (streamed.has_value()) {
      ++clean;
      std::vector<ObservedRoute> reference;
      ASSERT_NO_THROW(reference = plain_join(cut)) << "cut at " << len;
      EXPECT_EQ(streamed->routes(), reference) << "cut at " << len;
    } else {
      EXPECT_THROW(plain_join(cut), DecodeError) << "cut at " << len;
    }
  }
  EXPECT_GT(clean, 0u);
}

}  // namespace
}  // namespace htor::mrt
