// mrt_inspect: a bgpdump-style MRT file inspector built on the hybridtor MRT
// codec.  Given no argument it writes a demo dump to a temp file first, so
// it is runnable out of the box.
//
// Usage:  mrt_inspect [file.mrt] [--routes]
//    --routes   print one line per observed route instead of per record
#include <cstring>
#include <iostream>
#include <string>

#include "gen/internet.hpp"
#include "mrt/reader.hpp"
#include "mrt/stream_reader.hpp"
#include "mrt/writer.hpp"

namespace {

std::string demo_file() {
  using namespace htor;
  const auto net = gen::SyntheticInternet::generate(gen::small_params(1));
  mrt::MrtWriter writer;
  for (const auto& rec :
       mrt::records_from_rib(net.collect(), 0xdeadbeefu, "demo", 1281052800u)) {
    writer.write(rec);
  }
  const std::string path = "/tmp/hybridtor_demo.mrt";
  writer.save(path);
  std::cout << "(no input given; wrote demo dump to " << path << ")\n";
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace htor;
  std::string path;
  bool routes_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--routes") == 0) {
      routes_mode = true;
    } else {
      path = argv[i];
    }
  }
  if (path.empty()) path = demo_file();

  mrt::MrtStreamReader stream(path);
  if (routes_mode) {
    ThreadPool pool;
    const auto rib = mrt::rib_from_stream(stream, pool);
    std::cout << path << ": " << stream.source_size() << " bytes, " << stream.records_read()
              << " records\n";
    for (const auto& route : rib.routes()) {
      std::cout << route.prefix.to_string() << " via AS" << route.peer_asn << " path [";
      for (std::size_t i = 0; i < route.as_path.size(); ++i) {
        if (i) std::cout << ' ';
        std::cout << route.as_path[i];
      }
      std::cout << "]";
      if (route.local_pref) std::cout << " locpref " << *route.local_pref;
      if (!route.communities.empty()) {
        std::cout << " communities";
        for (auto c : route.communities) std::cout << ' ' << c.to_string();
      }
      std::cout << "\n";
    }
    return 0;
  }

  // Stream the records: print the first 20, count the rest.
  std::cout << path << ": " << stream.source_size() << " bytes\n";
  constexpr std::uint64_t kShown = 20;
  while (const auto raw = stream.next()) {
    const auto record = mrt::decode_record_body(raw->timestamp, raw->type, raw->subtype, raw->body);
    if (stream.records_read() > kShown) continue;
    std::cout << "t=" << record.timestamp << " ";
    if (const auto* pit = std::get_if<mrt::PeerIndexTable>(&record.body)) {
      std::cout << "PEER_INDEX_TABLE view='" << pit->view_name << "' peers="
                << pit->peers.size() << "\n";
      for (const auto& peer : pit->peers) {
        std::cout << "    AS" << peer.asn << " @ " << peer.address.to_string() << "\n";
      }
    } else if (const auto* rib = std::get_if<mrt::RibPrefixRecord>(&record.body)) {
      std::cout << "RIB_" << (rib->prefix.version() == IpVersion::V4 ? "IPV4" : "IPV6")
                << "_UNICAST seq=" << rib->sequence << " " << rib->prefix.to_string()
                << " entries=" << rib->entries.size() << "\n";
    } else if (std::get_if<mrt::Bgp4mpMessage>(&record.body)) {
      std::cout << "BGP4MP_MESSAGE\n";
    } else {
      const auto& raw_record = std::get<mrt::RawRecord>(record.body);
      std::cout << "raw type=" << raw_record.type << " subtype=" << raw_record.subtype
                << " len=" << raw_record.payload.size() << "\n";
    }
  }
  std::cout << stream.records_read() << " records";
  if (stream.records_read() > kShown) {
    std::cout << " (" << stream.records_read() - kShown << " not shown; use --routes)";
  }
  std::cout << "\n";
  return 0;
}
