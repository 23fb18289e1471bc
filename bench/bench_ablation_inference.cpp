// A1 (ablation): inference accuracy against planted ground truth.
//  - communities only vs + Rosetta vs Rosetta without the TE filter;
//  - the AF-agnostic baselines (Gao, degree-rank) per family.
// Quantifies the two design choices DESIGN.md calls out: the Rosetta stage
// widens coverage, and its TE filter is what keeps the extra links accurate.
#include <iostream>

#include "baselines/degree_rank.hpp"
#include "baselines/gao.hpp"
#include "harness.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

struct Accuracy {
  std::size_t covered = 0;
  std::size_t correct = 0;
};

Accuracy score(const std::vector<htor::LinkKey>& links, const htor::RelationshipMap& inferred,
               const htor::RelationshipMap& truth) {
  Accuracy acc;
  for (const auto& key : links) {
    const htor::Relationship got = inferred.get(key.first, key.second);
    if (got == htor::Relationship::Unknown) continue;
    ++acc.covered;
    if (got == truth.get(key.first, key.second)) ++acc.correct;
  }
  return acc;
}

}  // namespace

int main() {
  using namespace htor;
  bench::print_header("A1 / bench_ablation_inference",
                      "accuracy of communities+Rosetta vs baselines, and the TE filter's effect");

  const auto ds = bench::make_dataset();
  ThreadPool pool;
  const auto v6_paths = core::paths_of(ds.rib, IpVersion::V6, pool);
  const auto v4_paths = core::paths_of(ds.rib, IpVersion::V4, pool);
  const auto v6_links = v6_paths.links();
  const auto v4_links = v4_paths.links();

  PathStore mixed;
  for (const auto& route : ds.rib.routes()) mixed.add(route.as_path);

  // Variants of the paper's method.
  core::InferenceConfig comm_only;
  comm_only.use_rosetta = false;
  core::InferenceConfig full;
  core::InferenceConfig no_te_filter;
  no_te_filter.rosetta.filter_te = false;

  const auto inf_comm = core::infer_relationships(ds.rib, ds.dict, comm_only, pool);
  const auto inf_full = core::infer_relationships(ds.rib, ds.dict, full, pool);
  const auto inf_note = core::infer_relationships(ds.rib, ds.dict, no_te_filter, pool);

  // Baselines (AF-agnostic over mixed paths, applied to both planes).
  const auto gao = baselines::infer_gao(mixed);
  const auto rank = baselines::infer_degree_rank(mixed);

  const auto& truth6 = ds.net.truth(IpVersion::V6);
  const auto& truth4 = ds.net.truth(IpVersion::V4);

  auto row = [&](Table& t, const std::string& name, const RelationshipMap& rels,
                 const std::vector<LinkKey>& links, const RelationshipMap& truth) {
    const Accuracy acc = score(links, rels, truth);
    t.row({name, fmt_pct(acc.covered, links.size()), fmt_pct(acc.correct, acc.covered)});
  };

  std::cout << "\nIPv6 plane (" << v6_links.size() << " observed links):\n";
  Table t6({"method", "coverage", "accuracy (of covered)"});
  row(t6, "communities only", inf_comm.v6, v6_links, truth6);
  row(t6, "communities + Rosetta", inf_full.v6, v6_links, truth6);
  row(t6, "communities + Rosetta, NO TE filter", inf_note.v6, v6_links, truth6);
  row(t6, "Gao (mixed paths)", gao.rels, v6_links, truth6);
  row(t6, "degree-rank (mixed paths)", rank.rels, v6_links, truth6);
  t6.print(std::cout);

  std::cout << "\nIPv4 plane (" << v4_links.size() << " observed links):\n";
  Table t4({"method", "coverage", "accuracy (of covered)"});
  row(t4, "communities only", inf_comm.v4, v4_links, truth4);
  row(t4, "communities + Rosetta", inf_full.v4, v4_links, truth4);
  row(t4, "communities + Rosetta, NO TE filter", inf_note.v4, v4_links, truth4);
  row(t4, "Gao (mixed paths)", gao.rels, v4_links, truth4);
  row(t4, "degree-rank (mixed paths)", rank.rels, v4_links, truth4);
  t4.print(std::cout);

  // Rosetta-added links specifically: the population the TE filter protects.
  auto rosetta_delta = [&](const core::InferredRelationships& inf,
                           const RelationshipMap& truth) {
    Accuracy acc;
    inf.rosetta_v6.first_hop_rels.for_each([&](const LinkKey& key, Relationship rel) {
      ++acc.covered;
      if (rel == truth.get(key.first, key.second)) ++acc.correct;
    });
    return acc;
  };
  const Accuracy with_filter = rosetta_delta(inf_full, truth6);
  const Accuracy without_filter = rosetta_delta(inf_note, truth6);
  std::cout << "\nRosetta-added IPv6 first-hop links:\n";
  Table r({"variant", "links added", "accuracy"});
  r.row({"TE filter on", std::to_string(with_filter.covered),
         fmt_pct(with_filter.correct, with_filter.covered)});
  r.row({"TE filter off", std::to_string(without_filter.covered),
         fmt_pct(without_filter.correct, without_filter.covered)});
  r.print(std::cout);
  return 0;
}
