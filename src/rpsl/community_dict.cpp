#include "rpsl/community_dict.hpp"

#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace htor::rpsl {

const char* to_string(CommunityTagKind kind) {
  switch (kind) {
    case CommunityTagKind::FromCustomer: return "from-customer";
    case CommunityTagKind::FromPeer: return "from-peer";
    case CommunityTagKind::FromProvider: return "from-provider";
    case CommunityTagKind::FromSibling: return "from-sibling";
    case CommunityTagKind::SetLocPref: return "set-locpref";
    case CommunityTagKind::Prepend: return "prepend";
    case CommunityTagKind::NoExportTo: return "no-export-to";
    case CommunityTagKind::Blackhole: return "blackhole";
    case CommunityTagKind::GeoTag: return "geo";
    case CommunityTagKind::Other: return "other";
  }
  return "?";
}

bool is_relationship_tag(CommunityTagKind kind) {
  return kind == CommunityTagKind::FromCustomer || kind == CommunityTagKind::FromPeer ||
         kind == CommunityTagKind::FromProvider || kind == CommunityTagKind::FromSibling;
}

bool is_te_tag(CommunityTagKind kind) {
  return kind == CommunityTagKind::SetLocPref || kind == CommunityTagKind::Prepend ||
         kind == CommunityTagKind::NoExportTo || kind == CommunityTagKind::Blackhole;
}

Relationship relationship_of(CommunityTagKind kind) {
  switch (kind) {
    case CommunityTagKind::FromCustomer: return Relationship::P2C;
    case CommunityTagKind::FromPeer: return Relationship::P2P;
    case CommunityTagKind::FromProvider: return Relationship::C2P;
    case CommunityTagKind::FromSibling: return Relationship::S2S;
    default: break;
  }
  throw InvalidArgument("relationship_of: not a relationship tag");
}

void CommunityDictionary::add(bgp::Community community, CommunityMeaning meaning) {
  auto it = entries_.find(community);
  if (it != entries_.end()) {
    if (!(it->second == meaning)) ++conflicts_;
    return;
  }
  entries_.emplace(community, meaning);
  if (is_relationship_tag(meaning.kind)) documented_asns_.insert(community.asn());
}

const CommunityMeaning* CommunityDictionary::lookup(bgp::Community community) const {
  auto it = entries_.find(community);
  return it == entries_.end() ? nullptr : &it->second;
}

std::unordered_map<CommunityTagKind, std::size_t> CommunityDictionary::kind_histogram() const {
  std::unordered_map<CommunityTagKind, std::size_t> out;
  for (const auto& [community, meaning] : entries_) {
    (void)community;
    ++out[meaning.kind];
  }
  return out;
}

namespace {

bool contains_any(const std::string& hay, std::initializer_list<const char*> needles) {
  for (const char* n : needles) {
    if (hay.find(n) != std::string::npos) return true;
  }
  return false;
}

/// First decimal number appearing in `hay` after position `from`.
std::uint32_t first_number(const std::string& hay, std::size_t from) {
  std::size_t i = from;
  while (i < hay.size() && (hay[i] < '0' || hay[i] > '9')) ++i;
  std::uint64_t v = 0;
  bool any = false;
  while (i < hay.size() && hay[i] >= '0' && hay[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(hay[i] - '0');
    any = true;
    ++i;
    if (v > 0xffffffffull) return 0;
  }
  return any ? static_cast<std::uint32_t>(v) : 0;
}

CommunityMeaning classify_description(const std::string& lower) {
  CommunityMeaning m;
  // Traffic-engineering phrasings take priority: "set local-pref for peer
  // routes" must not be read as a peer ingress tag.
  if (contains_any(lower, {"local-pref", "local pref", "localpref", "local preference"})) {
    m.kind = CommunityTagKind::SetLocPref;
    const auto pos = lower.find("pref");
    m.locpref = first_number(lower, pos == std::string::npos ? 0 : pos);
    return m;
  }
  if (contains_any(lower, {"prepend"})) {
    m.kind = CommunityTagKind::Prepend;
    return m;
  }
  if (contains_any(lower, {"blackhole", "black hole", "rtbh"})) {
    m.kind = CommunityTagKind::Blackhole;
    return m;
  }
  if (contains_any(lower, {"do not announce", "don't announce", "no export to",
                           "not announce to", "no-export towards"})) {
    m.kind = CommunityTagKind::NoExportTo;
    return m;
  }
  // Relationship ingress tags.
  if (contains_any(lower, {"from customer", "from a customer", "from customers",
                           "customer route", "customer routes", "learned from customer",
                           "received from customer"})) {
    m.kind = CommunityTagKind::FromCustomer;
    return m;
  }
  if (contains_any(lower, {"from peer", "from a peer", "from peers", "peer route",
                           "peer routes", "peering partner", "public peering",
                           "private peering"})) {
    m.kind = CommunityTagKind::FromPeer;
    return m;
  }
  if (contains_any(lower, {"from upstream", "from transit", "upstream route",
                           "transit route", "from provider", "provider route",
                           "upstream provider", "transit provider"})) {
    m.kind = CommunityTagKind::FromProvider;
    return m;
  }
  if (contains_any(lower, {"sibling", "same organisation", "same organization",
                           "backbone route", "internal route"})) {
    m.kind = CommunityTagKind::FromSibling;
    return m;
  }
  if (contains_any(lower, {"originated in", "received in", "located in", "pop ",
                           "ixp", "city", "region"})) {
    m.kind = CommunityTagKind::GeoTag;
    return m;
  }
  m.kind = CommunityTagKind::Other;
  return m;
}

}  // namespace

bool interpret_remark_line(std::string_view line, bgp::Community& community,
                           CommunityMeaning& meaning) {
  const auto fields = split_ws(line);
  if (fields.empty()) return false;
  if (!bgp::Community::try_parse(fields[0], community)) return false;
  // Re-join the remainder as the description.
  std::string desc;
  for (std::size_t i = 1; i < fields.size(); ++i) {
    if (i > 1) desc += ' ';
    desc += std::string(fields[i]);
  }
  meaning = classify_description(to_lower(desc));
  return true;
}

CommunityDictionary mine_dictionary(const std::vector<RpslObject>& objects) {
  CommunityDictionary dict;
  for (const auto& object : objects) {
    if (object.class_name() != "aut-num") continue;
    for (std::string_view remark : object.all("remarks")) {
      // A remark value may span continuation lines.
      for (std::string_view line : split(remark, '\n')) {
        bgp::Community community;
        CommunityMeaning meaning;
        if (interpret_remark_line(trim(line), community, meaning)) {
          dict.add(community, meaning);
        }
      }
    }
  }
  return dict;
}

CommunityDictionary load_dictionary(const std::string& path) {
  const std::vector<std::uint8_t> bytes = load_bytes(path);
  return mine_dictionary(parse_objects(std::string(bytes.begin(), bytes.end())));
}

}  // namespace htor::rpsl
