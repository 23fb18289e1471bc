// Fuzz target: the RIB ingest path — MrtStreamReader's buffer source framing
// every record, decode_record_body, and the join in rib_from_stream.
//
// Contract asserted per input: the whole buffer frames and decodes into
// records that join into an ObservedRib, or a reasoned DecodeError is thrown
// — no other exception type, no crash, no partial RIB handed back.  The join
// is part of the target so attribute-level garbage (bad AS_SET segments,
// malformed NLRI, out-of-range peer indexes) that only surfaces at join time
// stays inside the contract.  `census` and `load_rib` run the same code over
// a file source.
#include "fuzz/driver.hpp"

#include "mrt/stream_reader.hpp"

using namespace htor;

int main(int argc, char** argv) {
  return fuzz::run_target("fuzz_mrt", argc, argv, [](const std::vector<std::uint8_t>& input) {
    mrt::MrtStreamReader stream(input);
    ThreadPool pool;
    // Batches of 3 records, so a small corpus dump still crosses batch
    // boundaries, with a peer table governing records in later batches.
    const auto rib = mrt::rib_from_stream(stream, pool, 3);
    (void)rib;
    return fuzz::Outcome::Parsed;
  });
}
