#include "snapshot/mapped.hpp"

#include <utility>

namespace htor::snapshot {

std::shared_ptr<const MappedSnapshot> MappedSnapshot::from_bytes(
    std::vector<std::uint8_t> bytes) {
  // Validate before constructing: a malformed image never becomes an object.
  // The span is taken after the move so it points at the final storage.
  auto snap = std::shared_ptr<MappedSnapshot>(new MappedSnapshot());
  snap->owned_ = std::move(bytes);
  snap->view_ = validate_v2(snap->owned_);
  return snap;
}

std::shared_ptr<const MappedSnapshot> MappedSnapshot::from_map(MmapFile map) {
  auto snap = std::shared_ptr<MappedSnapshot>(new MappedSnapshot());
  snap->map_ = std::move(map);
  snap->view_ = validate_v2(snap->map_.data());
  return snap;
}

}  // namespace htor::snapshot
