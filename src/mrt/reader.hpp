// MRT record decoder: turn one framed record body (see MrtStreamReader,
// the one framer) into a Record.
#pragma once

#include <span>
#include <vector>

#include "mrt/record.hpp"

namespace htor::mrt {

/// Decode one record body given the common-header fields that frame it.
/// Modelled (type, subtype) pairs are fully validated and throw DecodeError
/// on malformed bytes; unmodelled ones come back as RawRecord.
Record decode_record_body(std::uint32_t timestamp, std::uint16_t type, std::uint16_t subtype,
                          std::span<const std::uint8_t> body);

/// Frame every record of a buffer with MrtStreamReader and decode it.
/// Throws DecodeError on the first truncated or malformed record.
std::vector<Record> read_all(std::span<const std::uint8_t> data);

}  // namespace htor::mrt
