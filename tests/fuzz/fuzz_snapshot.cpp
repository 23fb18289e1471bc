// Fuzz target: the snapshot validator (snapshot::validate_v2), the one
// reader every snapshot file goes through.
//
// Contract asserted per input: validate_v2 yields a view or throws a
// reasoned DecodeError.  Accepted inputs face a second, stronger oracle —
// the format's canonical-encoding guarantee: a Snapshot rebuilt from the
// view (snapshot_rebuild.hpp, the test reference) must re-encode to the
// input byte for byte.  A mutation the validator accepts but that cannot
// round-trip means the format stopped being injective (some byte was
// silently ignored), which is exactly the class of bug that breaks snapshot
// diffing and --jobs determinism.
//
// On top of the generic mutator, a v2-specific pass perturbs the fields the
// flat layout's validator exists for: the declared file size, the section
// counts, and the six section offsets — nudged off by a few bytes
// (misalignment), zeroed, swapped, or blown up.  The generic strategies
// rarely land inside the 48..95 offset block, so without this pass the
// offset/alignment checks would go nearly unexercised.
#include "fuzz/driver.hpp"

#include "snapshot/layout.hpp"
#include "snapshot/writer.hpp"
#include "snapshot_rebuild.hpp"
#include "util/bytes.hpp"

using namespace htor;

namespace {

bool looks_like_v2(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < snapshot::kV2HeaderBytes) return false;
  const std::uint32_t magic = (std::uint32_t{bytes[0]} << 24) | (std::uint32_t{bytes[1]} << 16) |
                              (std::uint32_t{bytes[2]} << 8) | bytes[3];
  return magic == snapshot::kMagic && bytes[7] == 2;
}

void store_u64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[at + i] = static_cast<std::uint8_t>(value >> (8 * (7 - i)));
  }
}

std::uint64_t load_u64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 8; ++i) value = (value << 8) | bytes[at + i];
  return value;
}

/// The v2 pass: half the time, corrupt one of the header's u64 structure
/// fields (size @16, link count @32, hybrid count @40, section offsets
/// @48..95) in an alignment-hostile way.
void mutate_v2_structure(std::vector<std::uint8_t>& bytes, Rng& rng) {
  if (!looks_like_v2(bytes) || rng.index(2) == 0) return;
  static constexpr std::size_t kFields[] = {16, 32, 40, 48, 56, 64, 72, 80, 88};
  const std::size_t at = kFields[rng.index(std::size(kFields))];
  const std::uint64_t value = load_u64(bytes, at);
  switch (rng.index(4)) {
    case 0:  // off-by-a-few: breaks alignment or section layout equations
      store_u64(bytes, at, value + 1 + rng.index(8) - 4);
      break;
    case 1:
      store_u64(bytes, at, 0);
      break;
    case 2: {  // swap two section offsets
      const std::size_t other = kFields[3 + rng.index(6)];
      const std::uint64_t tmp = load_u64(bytes, other);
      store_u64(bytes, other, value);
      store_u64(bytes, at, tmp);
      break;
    }
    case 3:
      store_u64(bytes, at, value | (std::uint64_t{1} << (32 + rng.index(31))));
      break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  return fuzz::run_target("fuzz_snapshot", argc, argv,
                          [](const std::vector<std::uint8_t>& input) {
    const auto snap = snapshot::rebuild_snapshot(snapshot::validate_v2(input));
    const auto reencoded = snapshot::Writer::encode(snap);
    if (reencoded != input) {
      throw std::runtime_error("accepted input does not re-encode canonically (" +
                               std::to_string(input.size()) + " bytes in, " +
                               std::to_string(reencoded.size()) + " bytes out)");
    }
    return fuzz::Outcome::Parsed;
  }, mutate_v2_structure);
}
