// Conflict-graph analysis for the overlap-aware capacity constraints.
//
// The paper notes that when life-cycles do not conflict the capacity
// constraint is "slightly modified to allow overlapping in the memory
// space".  We realize that as clique constraints: storage demand on a bank
// type must hold for every MAXIMAL CLIQUE of the conflict graph (each
// clique is a set of structures that must be live in storage
// simultaneously).  For lifetime-derived conflicts the graph is an
// interval graph, whose maximal cliques are few and small; for arbitrary
// conflict sets we run Bron-Kerbosch with pivoting under a cap, falling
// back to the conservative single all-structures constraint if the cap is
// hit.
#pragma once

#include <cstddef>
#include <vector>

#include "design/design.hpp"

namespace gmm::design {

struct CliqueAnalysis {
  /// Maximal cliques (vertex index lists).  With an empty conflict set
  /// this is one singleton clique per structure; with all-pairs conflicts
  /// it is a single clique of everything, in ascending order, returned
  /// without enumerating.
  std::vector<std::vector<std::size_t>> cliques;
  /// True when enumeration hit the cap and `cliques` was replaced by the
  /// conservative single clique containing every structure.
  bool capped = false;
};

/// Enumerate maximal cliques of the design's conflict graph.
/// `max_cliques` bounds the output before falling back to conservative.
CliqueAnalysis conflict_cliques(const Design& design,
                                std::size_t max_cliques = 4096);

}  // namespace gmm::design
