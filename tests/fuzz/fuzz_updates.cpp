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
#include "fuzz/driver.hpp"

#include "live/observed_rib.hpp"
#include "mrt/reader.hpp"
#include "mrt/stream_reader.hpp"

using namespace htor;

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
      });
}
