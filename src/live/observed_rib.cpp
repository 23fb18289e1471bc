#include "live/observed_rib.hpp"

#include <algorithm>
#include <utility>

#include "bgp/as_path.hpp"
#include "util/error.hpp"

namespace htor::live {

namespace {

/// The announced-route template shared by every prefix an UPDATE carries:
/// path, LocPrf, and communities come from the attribute block once.
struct RouteTemplate {
  std::vector<Asn> as_path;
  std::optional<std::uint32_t> local_pref;
  std::vector<bgp::Community> communities;
};

void require_family(const Prefix& prefix, IpVersion af, const char* field) {
  if (prefix.version() != af) {
    throw DecodeError(std::string("BGP4MP update: ") + field + " carries a " +
                      to_string(prefix.version()) + " prefix");
  }
}

RouteKey key_of(const mrt::ObservedRoute& route) {
  return RouteKey{route.af, route.prefix, route.peer_asn};
}

bool key_less(const mrt::ObservedRoute& a, const mrt::ObservedRoute& b) {
  return key_of(a) < key_of(b);
}

/// Append `table` with `overlay` laid over it to `out`, in key order: an
/// overlay entry replaces the table's route under its key (nullopt drops
/// it).  `take` copies or moves a route out of its source, so one merge
/// serves fold() and materialize().
template <typename Routes, typename Overlay, typename Take>
void merge(Routes& table, Overlay& overlay, std::vector<mrt::ObservedRoute>& out, Take take) {
  auto slot = overlay.begin();
  const auto emit = [&](auto& entry) {
    if (entry.second) out.push_back(take(*entry.second));
  };
  for (auto& route : table) {
    const RouteKey key = key_of(route);
    for (; slot != overlay.end() && slot->first < key; ++slot) emit(*slot);
    if (slot != overlay.end() && slot->first == key) {
      emit(*slot++);
    } else {
      out.push_back(take(route));
    }
  }
  for (; slot != overlay.end(); ++slot) emit(*slot);
}

}  // namespace

void ObservedRib::seed(mrt::ObservedRib rib) {
  std::vector<mrt::ObservedRoute> routes = rib.release();
  if (!std::is_sorted(routes.begin(), routes.end(), key_less)) {
    std::stable_sort(routes.begin(), routes.end(), key_less);
  }
  // Rows sharing a key are now adjacent, in input order: keep each run's last.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (i + 1 < routes.size() && !key_less(routes[i], routes[i + 1])) continue;
    if (kept != i) routes[kept] = std::move(routes[i]);
    ++kept;
  }
  routes.resize(kept);
  table_ = mrt::ObservedRib(std::move(routes));
  overlay_.clear();
  v4_count_ = table_.size_of(IpVersion::V4);
  v6_count_ = table_.size_of(IpVersion::V6);
}

ApplyDelta ObservedRib::apply(const mrt::Bgp4mpMessage& msg) {
  ApplyDelta delta;
  const auto* update = std::get_if<bgp::UpdateMessage>(&msg.message);
  if (update == nullptr) {
    stats_.non_updates++;
    return delta;
  }

  // ---- validate everything before the first mutation -------------------
  // (strong exception safety: a DecodeError below must leave the table
  // untouched, so all structural checks run up front).
  const auto& attrs = update->attrs;
  for (const auto& p : update->withdrawn) require_family(p, IpVersion::V4, "withdrawn");
  for (const auto& p : update->nlri) require_family(p, IpVersion::V4, "nlri");
  if (attrs.mp_unreach) {
    for (const auto& p : attrs.mp_unreach->withdrawn) {
      require_family(p, IpVersion::V6, "MP_UNREACH_NLRI");
    }
  }
  if (attrs.mp_reach) {
    for (const auto& p : attrs.mp_reach->nlri) require_family(p, IpVersion::V6, "MP_REACH_NLRI");
  }

  const bool announces = !update->nlri.empty() ||
                         (attrs.mp_reach && !attrs.mp_reach->nlri.empty());
  RouteTemplate tmpl;
  if (announces) {
    tmpl.as_path = attrs.as_path.flatten();
    if (tmpl.as_path.empty()) {
      throw DecodeError("BGP4MP update announces prefixes without an AS_PATH");
    }
    tmpl.local_pref = attrs.local_pref;
    tmpl.communities = attrs.communities;
  }

  // ---- mutate ----------------------------------------------------------
  // Withdraw-then-announce, matching RFC 4271's reading of an UPDATE that
  // lists a prefix in both: the announcement wins.
  for (const auto& p : update->withdrawn) erase(RouteKey{IpVersion::V4, p, msg.peer_as}, delta);
  if (attrs.mp_unreach) {
    for (const auto& p : attrs.mp_unreach->withdrawn) {
      erase(RouteKey{IpVersion::V6, p, msg.peer_as}, delta);
    }
  }

  auto announce = [&](IpVersion af, const Prefix& p) {
    mrt::ObservedRoute route;
    route.af = af;
    route.prefix = p;
    route.peer_asn = msg.peer_as;
    route.as_path = tmpl.as_path;
    route.local_pref = tmpl.local_pref;
    route.communities = tmpl.communities;
    insert(std::move(route), delta);
  };
  for (const auto& p : update->nlri) announce(IpVersion::V4, p);
  if (attrs.mp_reach) {
    for (const auto& p : attrs.mp_reach->nlri) announce(IpVersion::V6, p);
  }

  stats_.messages++;
  return delta;
}

const mrt::ObservedRoute* ObservedRib::held(const RouteKey& key) const {
  if (const auto slot = overlay_.find(key); slot != overlay_.end()) {
    return slot->second ? &*slot->second : nullptr;
  }
  const auto& routes = table_.routes();
  const auto it = std::lower_bound(
      routes.begin(), routes.end(), key,
      [](const mrt::ObservedRoute& route, const RouteKey& k) { return key_of(route) < k; });
  return it != routes.end() && key_of(*it) == key ? &*it : nullptr;
}

void ObservedRib::insert(mrt::ObservedRoute route, ApplyDelta& delta) {
  const mrt::ObservedRoute* old = held(key_of(route));
  if (old != nullptr && *old == route) {
    stats_.duplicates++;
    return;
  }
  const bool replacing = old != nullptr;
  if (replacing) delta.removed.push_back(*old);
  delta.added.push_back(route);
  const IpVersion af = route.af;
  overlay_.insert_or_assign(key_of(route), std::move(route));
  if (replacing) {
    stats_.replaced++;
  } else {
    (af == IpVersion::V4 ? v4_count_ : v6_count_)++;
    stats_.announced++;
  }
}

void ObservedRib::erase(const RouteKey& key, ApplyDelta& delta) {
  const mrt::ObservedRoute* old = held(key);
  if (old == nullptr) {
    stats_.withdrawn_missing++;
    return;
  }
  delta.removed.push_back(*old);
  overlay_.insert_or_assign(key, std::nullopt);
  (key.af == IpVersion::V4 ? v4_count_ : v6_count_)--;
  stats_.withdrawn++;
}

const mrt::ObservedRib& ObservedRib::fold() {
  if (overlay_.empty()) return table_;
  std::vector<mrt::ObservedRoute> merged;
  merged.reserve(size());  // the one step that can throw, taken before the table moves
  std::vector<mrt::ObservedRoute> routes = table_.release();
  merge(routes, overlay_, merged,
        [](mrt::ObservedRoute& route) -> mrt::ObservedRoute&& { return std::move(route); });
  table_ = mrt::ObservedRib(std::move(merged));
  overlay_.clear();
  return table_;
}

mrt::ObservedRib ObservedRib::materialize() const {
  std::vector<mrt::ObservedRoute> routes;
  routes.reserve(size());
  merge(table_.routes(), overlay_, routes,
        [](const mrt::ObservedRoute& route) -> const mrt::ObservedRoute& { return route; });
  return mrt::ObservedRib(std::move(routes));
}

}  // namespace htor::live
