#include "design/conflict_analysis.hpp"

#include <algorithm>
#include <numeric>

namespace gmm::design {

namespace {

/// Bron-Kerbosch with pivoting on an adjacency-matrix graph.
class CliqueEnumerator {
 public:
  CliqueEnumerator(std::size_t n,
                   const std::vector<std::vector<bool>>& adjacent,
                   std::size_t max_cliques)
      : n_(n), adjacent_(adjacent), max_cliques_(max_cliques) {}

  bool run(std::vector<std::vector<std::size_t>>& out) {
    std::vector<std::size_t> r, p(n_), x;
    for (std::size_t v = 0; v < n_; ++v) p[v] = v;
    out_ = &out;
    return expand(r, p, x);
  }

 private:
  /// Returns false if the clique cap was exceeded.
  bool expand(std::vector<std::size_t>& r, std::vector<std::size_t> p,
              std::vector<std::size_t> x) {
    if (p.empty() && x.empty()) {
      if (out_->size() >= max_cliques_) return false;
      out_->push_back(r);
      return true;
    }
    // Pivot: vertex of P union X with the most neighbours in P.
    std::size_t pivot = 0;
    std::size_t best_degree = 0;
    bool have_pivot = false;
    for (const auto& set : {p, x}) {
      for (const std::size_t u : set) {
        std::size_t degree = 0;
        for (const std::size_t v : p) {
          if (adjacent_[u][v]) ++degree;
        }
        if (!have_pivot || degree > best_degree) {
          have_pivot = true;
          best_degree = degree;
          pivot = u;
        }
      }
    }
    // Candidates: P minus neighbours of the pivot.
    std::vector<std::size_t> candidates;
    for (const std::size_t v : p) {
      if (!adjacent_[pivot][v]) candidates.push_back(v);
    }
    for (const std::size_t v : candidates) {
      std::vector<std::size_t> p_next, x_next;
      for (const std::size_t u : p) {
        if (adjacent_[v][u]) p_next.push_back(u);
      }
      for (const std::size_t u : x) {
        if (adjacent_[v][u]) x_next.push_back(u);
      }
      r.push_back(v);
      if (!expand(r, std::move(p_next), std::move(x_next))) return false;
      r.pop_back();
      p.erase(std::find(p.begin(), p.end(), v));
      x.push_back(v);
    }
    return true;
  }

  std::size_t n_;
  const std::vector<std::vector<bool>>& adjacent_;
  std::size_t max_cliques_;
  std::vector<std::vector<std::size_t>>* out_ = nullptr;
};

}  // namespace

CliqueAnalysis conflict_cliques(const Design& design,
                                std::size_t max_cliques) {
  CliqueAnalysis analysis;
  const std::size_t n = design.size();
  if (n == 0) return analysis;

  // A complete graph (every Table-3 design) has one maximal clique, and
  // the enumeration below would pivot over |P|^2 pairs at each of n
  // levels to emit it as {0, ..., n-1} — the same ascending vector built
  // here directly.
  if (design.all_conflicting() && max_cliques > 0) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    analysis.cliques.push_back(std::move(all));
    return analysis;
  }

  std::vector<std::vector<bool>> adjacent(n, std::vector<bool>(n, false));
  for (const auto& [a, b] : design.conflict_pairs()) {
    adjacent[a][b] = true;
    adjacent[b][a] = true;
  }

  CliqueEnumerator enumerator(n, adjacent, max_cliques);
  if (!enumerator.run(analysis.cliques)) {
    // Cap hit: conservative fallback treats everything as one clique,
    // i.e. no storage overlap is assumed anywhere.
    analysis.cliques.clear();
    std::vector<std::size_t> all(n);
    for (std::size_t v = 0; v < n; ++v) all[v] = v;
    analysis.cliques.push_back(std::move(all));
    analysis.capped = true;
  }
  return analysis;
}

}  // namespace gmm::design
