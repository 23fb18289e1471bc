// Valley explorer: digs into individual IPv6 valley paths — prints the
// relationship-annotated path, where the valley occurs, which AS leaked,
// and whether a strict valley-free alternative exists (the paper's
// "relaxation for reachability" distinction).
//
// Usage:  valley_explorer [count]      (default: show 10 valley paths)
#include <cstdlib>
#include <iostream>
#include <span>
#include <unordered_set>

#include "core/pipeline.hpp"
#include "core/valley_census.hpp"
#include "gen/internet.hpp"
#include "topology/valley.hpp"

int main(int argc, char** argv) {
  using namespace htor;
  const std::size_t show = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 10;

  gen::GenParams params;
  const auto net = gen::SyntheticInternet::generate(params);
  const auto rib = net.collect();

  // Explore against ground truth: every annotation is exact.
  const auto& truth = net.truth(IpVersion::V6);
  ThreadPool pool;
  const auto v6_paths = core::paths_of(rib, IpVersion::V6, pool);
  std::unordered_set<Asn> relaxed(net.relaxed_ases().begin(), net.relaxed_ases().end());

  std::cout << "IPv6 plane: " << v6_paths.unique_paths() << " distinct AS paths\n";
  std::cout << "relaxed-export ASes:";
  for (Asn asn : net.relaxed_ases()) std::cout << " AS" << asn;
  std::cout << "\n\n";

  std::size_t shown = 0;
  std::size_t necessary_shown = 0;
  v6_paths.for_each([&](std::span<const Asn> path, std::uint64_t) {
    if (shown >= show) return;
    const auto check = check_valley_free(path, truth);
    if (check.cls != PathPolicyClass::Valley) return;

    const bool necessary = core::valley_is_necessary(path.front(), path.back(), truth);
    // Alternate between the two flavours so both show up early.
    if (necessary && necessary_shown > shown / 2) return;
    ++shown;
    if (necessary) ++necessary_shown;

    std::cout << (necessary ? "[REACHABILITY-REQUIRED] " : "[gratuitous leak]       ");
    for (std::size_t i = 0; i < path.size(); ++i) {
      std::cout << "AS" << path[i];
      if (relaxed.count(path[i])) std::cout << "*";
      if (i + 1 < path.size()) {
        std::cout << " -" << to_string(truth.get(path[i], path[i + 1])) << "- ";
      }
    }
    std::cout << "\n    valley at hop " << *check.first_violation;
    if (check.first_violation) {
      const Asn leaker = path[*check.first_violation];
      std::cout << " (AS" << leaker << (relaxed.count(leaker) ? ", a relaxed exporter)" : ")");
    }
    std::cout << "\n";
  });

  // Aggregate, for context.
  const auto census = core::census_valleys(v6_paths, truth, pool);
  std::cout << "\naggregate: " << census.valley << " valley paths of " << census.paths << " ("
            << 100.0 * census.valley_fraction() << "%), " << census.necessary_valleys << " of "
            << census.classified_valleys << " classified valleys are reachability-required\n";
  std::cout << "(* marks ASes with relaxed IPv6 export)\n";
  return 0;
}
