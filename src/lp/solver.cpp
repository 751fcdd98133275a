#include "lp/solver.hpp"

#include "lp/presolve.hpp"
#include "lp/standard_form.hpp"

namespace gmm::lp {

LpResult solve_lp(const Model& model, const LpOptions& options) {
  LpResult result;
  if (options.use_presolve) {
    PresolveResult pre = presolve(model);
    if (pre.infeasible) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }
    if (pre.reduced.num_vars() == 0) {
      // Everything fixed by presolve; the offset is the whole objective.
      result.status = SolveStatus::kOptimal;
      result.x = postsolve(pre, {});
      result.objective = pre.objective_offset;
      return result;
    }
    const StandardForm sf = StandardForm::build(pre.reduced);
    SimplexEngine engine(sf);
    result.status = engine.solve(options.simplex);
    result.stats = engine.stats();
    if (result.status == SolveStatus::kOptimal) {
      result.x = postsolve(pre, engine.structural_solution());
      result.objective = engine.objective_value() + pre.objective_offset;
    }
    return result;
  }

  const StandardForm sf = StandardForm::build(model);
  SimplexEngine engine(sf);
  result.status = engine.solve(options.simplex);
  result.stats = engine.stats();
  if (result.status == SolveStatus::kOptimal) {
    result.x = engine.structural_solution();
    result.objective = engine.objective_value();
  }
  return result;
}

}  // namespace gmm::lp
