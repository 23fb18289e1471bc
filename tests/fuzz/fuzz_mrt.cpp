// Fuzz target: the MRT record decoder (mrt::read_all / decode_record_body).
//
// Contract asserted per input: the whole buffer decodes into records, or a
// reasoned DecodeError is thrown — no other exception type, no crash, no
// partial RIB handed back.  Joining the decoded records into an ObservedRib
// is also exercised so attribute-level garbage (bad AS_PATH segments,
// malformed NLRI) that only surfaces at join time stays inside the contract.
#include "fuzz/driver.hpp"

#include "mrt/reader.hpp"
#include "mrt/rib_view.hpp"

using namespace htor;

int main(int argc, char** argv) {
  return fuzz::run_target("fuzz_mrt", argc, argv, [](const std::vector<std::uint8_t>& input) {
    const auto records = mrt::read_all(input);
    // A decoded record set must survive the join into an observed RIB; a
    // throw here is still a reasoned DecodeError by contract.
    ThreadPool pool;
    const auto rib = mrt::rib_from_records(records, pool);
    (void)rib;
    return fuzz::Outcome::Parsed;
  });
}
