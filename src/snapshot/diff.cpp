#include "snapshot/diff.hpp"

namespace htor::snapshot {

namespace {

LinkKey key_of(const V2View::LinkRow& row) { return LinkKey(row.first, row.second); }

/// File one family's view of a link into its churn bucket; `in_a`/`in_b`
/// say whether each snapshot's row records the family at all.
void classify(FamilyDiff& out, const LinkKey& link, bool in_a, Relationship before, bool in_b,
              Relationship after) {
  if (in_a && in_b) {
    if (before != after) {
      out.flips.push_back({link, before, after});
    } else {
      ++out.unchanged;
    }
  } else if (in_a) {
    out.vanished.push_back(link);
  } else if (in_b) {
    out.appeared.push_back(link);
  }
}

}  // namespace

Diff diff(const QueryIndex& a, const QueryIndex& b) {
  const V2View& va = a.view();
  const V2View& vb = b.view();
  Diff out;
  const V2View::LinkRow none;  // in no family, not hybrid
  std::uint64_t i = 0;
  std::uint64_t j = 0;
  // Merge-walk the two link tables, both sorted by (first, second).  A link
  // one side lacks reads as `none` there.
  while (i < va.link_count || j < vb.link_count) {
    const bool has_a = i < va.link_count;
    const bool has_b = j < vb.link_count;
    const V2View::LinkRow ra = has_a ? va.link_at(i) : none;
    const V2View::LinkRow rb = has_b ? vb.link_at(j) : none;
    const bool take_a = has_a && (!has_b || !(key_of(rb) < key_of(ra)));
    const bool take_b = has_b && (!has_a || !(key_of(ra) < key_of(rb)));
    i += take_a ? 1 : 0;
    j += take_b ? 1 : 0;
    const LinkKey link = key_of(take_a ? ra : rb);
    const V2View::LinkRow& xa = take_a ? ra : none;
    const V2View::LinkRow& xb = take_b ? rb : none;
    classify(out.v4, link, xa.in_v4, xa.rel_v4, xb.in_v4, xb.rel_v4);
    classify(out.v6, link, xa.in_v6, xa.rel_v6, xb.in_v6, xb.rel_v6);
    if (xa.hybrid && xb.hybrid) {
      ++out.hybrids_stable;
    } else if (xa.hybrid) {
      out.hybrids_resolved.push_back(link);
    } else if (xb.hybrid) {
      out.hybrids_formed.push_back(link);
    }
  }
  return out;
}

}  // namespace htor::snapshot
