#include "mapping/global_mapper.hpp"

#include <cmath>

#include "design/conflict_analysis.hpp"
#include "mapping/greedy_mapper.hpp"
#include "mapping/lagrangian.hpp"
#include "support/assert.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace gmm::mapping {

std::optional<GlobalModel> formulate_global(const design::Design& design,
                                            const arch::Board& board,
                                            const CostTable& table,
                                            const GlobalOptions& options) {
  const std::size_t num_ds = design.size();
  const std::size_t num_types = board.num_types();
  GMM_ASSERT(table.num_structures() == num_ds &&
                 table.num_types() == num_types,
             "cost table does not match design/board");
  GlobalModel global;
  lp::Model& model = global.model;
  std::vector<std::vector<lp::Index>>& z = global.z;

  // ---- variables: Z_dt for feasible pairs only -------------------------
  z.assign(num_ds, std::vector<lp::Index>(num_types, lp::kInvalidIndex));
  // Pins and migration penalties (incremental re-solve).  A structure
  // pinned onto a feasible prior type gets that column alone; moving an
  // unpinned structure off its prior type costs extra, steering the delta
  // re-optimization toward minimal-disturbance remaps.  The penalty lives
  // only in the model's objective; map_global recomputes the reported
  // assignment objective as the pure mapping cost so cold and near-miss
  // solves stay comparable.
  const bool has_prior = options.prior_type_of.size() == num_ds;
  const bool migration_active = options.migration_penalty > 0.0 && has_prior;
  std::vector<int> pinned_to(num_ds, -1);
  for (const std::size_t d : options.pinned_structures) {
    if (!has_prior || d >= num_ds) continue;
    const int t = options.prior_type_of[d];
    if (t >= 0 && static_cast<std::size_t>(t) < num_types &&
        table.feasible(d, static_cast<std::size_t>(t))) {
      pinned_to[d] = t;
    }
  }
  for (std::size_t d = 0; d < num_ds; ++d) {
    bool any = false;
    for (std::size_t t = 0; t < num_types; ++t) {
      if (!table.feasible(d, t) ||
          (pinned_to[d] >= 0 && static_cast<int>(t) != pinned_to[d])) {
        continue;
      }
      double coef = table.cost(d, t);
      if (migration_active && options.prior_type_of[d] >= 0 &&
          static_cast<std::size_t>(options.prior_type_of[d]) != t) {
        coef += options.migration_penalty;
      }
      z[d][t] = model.add_binary(coef);
      any = true;
    }
    if (!any) {
      GMM_LOG(kInfo) << "global: structure " << design.at(d).name
                     << " fits no bank type; model infeasible";
      return std::nullopt;
    }
  }

  // ---- uniqueness --------------------------------------------------------
  // Each row kind reuses one expression's storage from row to row.
  global.uniqueness_rows.resize(num_ds);
  lp::LinExpr expr;
  for (std::size_t d = 0; d < num_ds; ++d) {
    expr.clear();
    for (std::size_t t = 0; t < num_types; ++t) {
      if (z[d][t] != lp::kInvalidIndex) expr.add(z[d][t], 1.0);
    }
    global.uniqueness_rows[d] =
        model.add_constraint(expr, lp::Sense::kEqual, 1.0);
  }

  // ---- ports and capacity (conflict-clique aware) -----------------------
  // Lifetime-disjoint structures may time-multiplex both storage AND the
  // bank wiring (the detailed mapper realizes this as identical shared
  // blocks reusing the same port range), so with overlap enabled BOTH
  // resource constraints apply per maximal conflict clique.  Note the
  // Figure-3 port estimate dominates the capacity fraction
  // (CP_dt >= area_dt * P_t / bits_t), so relaxing capacity alone would
  // be vacuous — the port constraint would still forbid every overlap.
  std::vector<std::vector<std::size_t>>& cliques = global.cliques;
  if (options.overlap_aware_capacity) {
    cliques = design::conflict_cliques(design).cliques;
  } else {
    std::vector<std::size_t> all(num_ds);
    for (std::size_t d = 0; d < num_ds; ++d) all[d] = d;
    cliques.push_back(std::move(all));
  }
  lp::LinExpr ports, area;
  for (std::size_t t = 0; t < num_types; ++t) {
    const double total_ports =
        static_cast<double>(board.type(t).total_ports());
    const double capacity = static_cast<double>(board.type(t).total_bits());
    for (std::size_t q = 0; q < cliques.size(); ++q) {
      ports.clear();
      area.clear();
      for (const std::size_t d : cliques[q]) {
        if (z[d][t] == lp::kInvalidIndex) continue;
        const PlacementPlan& plan = table.plan(d, t);
        ports.add(z[d][t], static_cast<double>(plan.cp));
        area.add(z[d][t], static_cast<double>(plan.cw * plan.cd));
      }
      if (!ports.empty()) {
        model.add_constraint(ports, lp::Sense::kLessEqual, total_ports);
        model.add_constraint(area, lp::Sense::kLessEqual, capacity);
      }
    }
  }

  // ---- retry cuts ---------------------------------------------------------
  lp::LinExpr no_good;
  for (const auto& cut : options.no_good_cuts) {
    no_good.clear();
    for (const auto& [d, t] : cut) {
      if (z[d][t] != lp::kInvalidIndex) no_good.add(z[d][t], 1.0);
    }
    if (!no_good.empty()) {
      model.add_constraint(no_good, lp::Sense::kLessEqual,
                           static_cast<double>(cut.size()) - 1.0);
    }
  }

  return global;
}

GlobalResult map_global(const design::Design& design,
                        const arch::Board& board, const CostTable& table,
                        const GlobalOptions& options) {
  GlobalResult result;
  const std::size_t num_ds = design.size();
  const std::size_t num_types = board.num_types();
  if (num_ds == 0) {
    result.status = lp::SolveStatus::kOptimal;
    result.assignment.objective = 0.0;
    return result;
  }

  support::WallTimer timer;
  std::optional<GlobalModel> formulated =
      formulate_global(design, board, table, options);
  if (!formulated) {
    result.status = lp::SolveStatus::kInfeasible;
    return result;
  }
  const lp::Model& model = formulated->model;
  const std::vector<std::vector<lp::Index>>& z = formulated->z;
  const bool migration_active =
      options.migration_penalty > 0.0 &&
      options.prior_type_of.size() == num_ds;
  result.model_size.variables = model.num_vars();
  result.model_size.binaries = model.num_vars();
  result.model_size.rows = model.num_rows();
  result.model_size.nonzeros =
      static_cast<std::int64_t>(model.num_nonzeros());
  result.effort.formulate_seconds = timer.seconds();

  // ---- greedy-repair primal heuristic -----------------------------------
  // Round each structure to its strongest fractional type, then migrate
  // structures off over-budget types by smallest cost delta.  Conservative
  // (all-conflicting) budgets are used, so any repaired assignment is
  // feasible for the clique-relaxed model too; the MIP solver validates
  // against the actual rows regardless.  Early incumbents prune the
  // near-optimal plateaus these port/capacity knapsacks produce.
  ilp::MipOptions mip_options = options.mip;
  mip_options.primal_heuristic =
      [&model, &board, &table, &z, &design, num_ds,
       num_types](const std::vector<double>& lp_x)
      -> std::optional<std::vector<double>> {
    std::vector<int> assign(num_ds, -1);
    for (std::size_t d = 0; d < num_ds; ++d) {
      double best = -1.0;
      for (std::size_t t = 0; t < num_types; ++t) {
        if (z[d][t] != lp::kInvalidIndex && lp_x[z[d][t]] > best) {
          best = lp_x[z[d][t]];
          assign[d] = static_cast<int>(t);
        }
      }
      if (assign[d] < 0) return std::nullopt;
    }
    if (!repair_assignment(design, board, table, assign)) {
      return std::nullopt;
    }
    std::vector<double> x(static_cast<std::size_t>(model.num_vars()), 0.0);
    for (std::size_t d = 0; d < num_ds; ++d) {
      if (z[d][assign[d]] == lp::kInvalidIndex) return std::nullopt;
      x[z[d][assign[d]]] = 1.0;
    }
    return x;
  };

  // ---- Lagrangian knapsack bound ------------------------------------------
  // Called by the tree search once it is still open after a few dozen
  // nodes (see lagrangian.hpp): closes the search, fixes pairs and seeds
  // incumbents from the per-type port knapsacks.
  const LagrangianBound lagrangian(design, board, table, model, z,
                                   formulated->cliques,
                                   formulated->uniqueness_rows);
  mip_options.relaxation_bound = std::cref(lagrangian);

  // ---- solve --------------------------------------------------------------
  timer.reset();
  result.mip = ilp::solve_mip(model, mip_options);
  result.effort.solve_seconds = timer.seconds();
  result.effort.bnb_nodes = result.mip.nodes;
  result.effort.lp_iterations = result.mip.lp_iterations;
  result.effort.lp_refactorizations = result.mip.simplex_refactorizations;
  result.effort.basis = result.mip.basis;
  result.status = result.mip.status;
  if (!result.mip.has_incumbent()) return result;

  // ---- extract assignment ---------------------------------------------
  result.assignment.type_of.assign(num_ds, -1);
  for (std::size_t d = 0; d < num_ds; ++d) {
    for (std::size_t t = 0; t < num_types; ++t) {
      if (z[d][t] != lp::kInvalidIndex &&
          result.mip.x[z[d][t]] > 0.5) {
        GMM_ASSERT(result.assignment.type_of[d] < 0,
                   "structure assigned to two types");
        result.assignment.type_of[d] = static_cast<int>(t);
      }
    }
    GMM_ASSERT(result.assignment.type_of[d] >= 0,
               "structure left unassigned by an incumbent solution");
  }
  result.assignment.objective =
      migration_active
          ? table.assignment_objective(result.assignment.type_of)
          : result.mip.objective;
  return result;
}

}  // namespace gmm::mapping
