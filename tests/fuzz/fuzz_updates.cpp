// Fuzz target: the BGP4MP update path — MrtStreamReader::next_update framing,
// BGP UPDATE decode, and live::ObservedRib::apply and fold, read the way
// live::Pipeline::feed reads an update file.
//
// Contract asserted per input: every BGP4MP message frame decodes and
// applies to the live RIB, or a reasoned DecodeError is thrown — no other
// exception type, no crash.  Frames of other types are skipped by header
// alone, as the live feed skips them.  On top of the decoder contract this
// target asserts the apply-side strong exception guarantee: when apply()
// rejects a message, the observed RIB must be byte-identical to its state
// before the call (a torn table would silently poison every later census
// epoch, which is why the validation happens before any mutation).  The
// input picks the epoch cuts: after each frame whose MRT timestamp is a
// multiple of 3 the RIB folds its overlay into its sorted table, as an
// epoch does, and the fold must leave the route set unchanged.  So the
// guarantee is held over routes in the table and in the overlay both.
//
// On top of the generic mutator, a structure pass aims at that guarantee:
// half the time it finds the UPDATEs that both withdraw IPv4 prefixes and
// announce (the corpus has a seed of them, withdrawing routes it holds),
// and strips the AS_PATH attribute from one, fixing up the three enclosing
// lengths.  apply() must reject such a message without running its
// withdraws; blind byte mutations almost never produce one.
#include "fuzz/driver.hpp"

#include "live/observed_rib.hpp"
#include "mrt/reader.hpp"
#include "mrt/stream_reader.hpp"

using namespace htor;

namespace {

std::uint32_t load_be(const std::vector<std::uint8_t>& bytes, std::size_t at, std::size_t width) {
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < width; ++i) value = (value << 8) | bytes[at + i];
  return value;
}

void store_be(std::vector<std::uint8_t>& bytes, std::size_t at, std::size_t width,
              std::uint32_t value) {
  for (std::size_t i = 0; i < width; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * (width - 1 - i)));
  }
}

/// One AS_PATH attribute inside a withdraw-and-announce UPDATE, with the
/// offsets of the three length fields that enclose it.
struct AsPathSite {
  std::size_t mrt_len_at = 0;   ///< u32 MRT record length
  std::size_t bgp_len_at = 0;   ///< u16 BGP message length
  std::size_t attr_len_at = 0;  ///< u16 total path attribute length
  std::size_t at = 0;           ///< the attribute's first byte
  std::size_t size = 0;         ///< header plus value
};

/// Walk the MRT frames of `bytes` (RFC 6396 BGP4MP_MESSAGE[_AS4], RFC 4271
/// UPDATE layout) and list every strippable AS_PATH.  A frame whose length
/// overruns the input ends the walk and one that does not fit the layout is
/// skipped: this pass only aims, the decoder judges.
std::vector<AsPathSite> as_path_sites(const std::vector<std::uint8_t>& bytes) {
  std::vector<AsPathSite> sites;
  std::size_t pos = 0;
  while (pos + 12 <= bytes.size()) {
    const std::uint32_t type = load_be(bytes, pos + 4, 2);
    const std::uint32_t subtype = load_be(bytes, pos + 6, 2);
    const std::size_t end = pos + 12 + load_be(bytes, pos + 8, 4);
    if (end > bytes.size()) break;
    const std::size_t mrt_len_at = pos + 8;
    std::size_t p = pos + 12;
    pos = end;
    if (type != 16 || (subtype != 1 && subtype != 4)) continue;
    p += (subtype == 4 ? 8 : 4) + 2;  // peer AS, local AS, interface index
    if (p + 2 > end) continue;
    const std::uint32_t afi = load_be(bytes, p, 2);
    p += 2 + 2 * (afi == 1 ? 4 : 16);  // peer and local address
    if (p + 21 > end || bytes[p + 18] != 2) continue;  // marker, length, UPDATE
    const std::size_t bgp_len_at = p + 16;
    const std::size_t msg_end = p + load_be(bytes, bgp_len_at, 2);
    p += 19;
    const std::size_t withdrawn_len = load_be(bytes, p, 2);
    p += 2 + withdrawn_len;
    if (withdrawn_len == 0 || p + 2 > end) continue;
    const std::size_t attr_len_at = p;
    const std::size_t attrs_end = p + 2 + load_be(bytes, p, 2);
    if (attrs_end >= msg_end || msg_end > end) continue;  // no NLRI to announce
    for (std::size_t q = p + 2; q + 3 <= attrs_end;) {
      const bool extended = (bytes[q] & 0x10) != 0;
      const std::size_t header = extended ? 4 : 3;
      if (q + header > attrs_end) break;
      const std::size_t size = header + load_be(bytes, q + 2, header - 2);
      if (q + size > attrs_end) break;
      if (bytes[q + 1] == 2) sites.push_back({mrt_len_at, bgp_len_at, attr_len_at, q, size});
      q += size;
    }
  }
  return sites;
}

/// The structure pass: half the time, strip one AS_PATH from a
/// withdraw-and-announce UPDATE.
void strip_as_path(std::vector<std::uint8_t>& bytes, Rng& rng) {
  if (rng.index(2) == 0) return;
  const auto sites = as_path_sites(bytes);
  if (sites.empty()) return;
  const AsPathSite& site = sites[rng.index(sites.size())];
  const auto shrink = [&](std::size_t at, std::size_t width) {
    store_be(bytes, at, width, load_be(bytes, at, width) - static_cast<std::uint32_t>(site.size));
  };
  shrink(site.mrt_len_at, 4);
  shrink(site.bgp_len_at, 2);
  shrink(site.attr_len_at, 2);
  const auto at = bytes.begin() + static_cast<std::ptrdiff_t>(site.at);
  bytes.erase(at, at + static_cast<std::ptrdiff_t>(site.size));
}

}  // namespace

int main(int argc, char** argv) {
  return fuzz::run_target(
      "fuzz_updates", argc, argv, [](const std::vector<std::uint8_t>& input) {
        mrt::MrtStreamReader stream(input);
        live::ObservedRib rib;
        while (const auto raw = stream.next_update()) {
          const mrt::Record record =
              mrt::decode_record_body(raw->timestamp, raw->type, raw->subtype, raw->body);
          const auto* msg = std::get_if<mrt::Bgp4mpMessage>(&record.body);
          if (msg == nullptr) continue;  // next_update() filtered; defensive
          const auto before = rib.materialize();
          try {
            rib.apply(*msg);
          } catch (const DecodeError&) {
            // The strong guarantee: a rejected update leaves no trace.
            if (rib.materialize().routes() != before.routes()) {
              throw std::logic_error("apply() threw but mutated the observed RIB");
            }
            throw;  // still a reasoned rejection for the harness tally
          }
          if (raw->timestamp % 3 == 0) {
            const auto unfolded = rib.materialize();
            if (rib.fold().routes() != unfolded.routes()) {
              throw std::logic_error("fold() changed the observed RIB's routes");
            }
          }
        }
        return fuzz::Outcome::Parsed;
      },
      strip_as_path);
}
