#include "lp/incremental.h"

#include <algorithm>

#include "util/check.h"

namespace autotest::lp {

IncrementalSolver::IncrementalSolver(LinearProgram base)
    : program_(std::move(base)), engine_(program_) {}

size_t IncrementalSolver::AddVariable(
    double objective, double upper,
    const std::vector<std::pair<size_t, double>>& terms) {
  size_t var = program_.AddVariable(objective, upper);
  for (const auto& [row, coef] : terms) {
    AT_CHECK(row < program_.constraints.size());
    program_.constraints[row].terms.push_back({var, coef});
  }
  size_t engine_var = engine_.AddStructural(objective, upper, terms);
  AT_CHECK(engine_var == var);
  return var;
}

void IncrementalSolver::ReplaceVariable(
    size_t var, double objective, double upper,
    const std::vector<std::pair<size_t, double>>& terms) {
  AT_CHECK(var < program_.num_vars);
  program_.objective[var] = objective;
  program_.upper_bounds[var] = upper;
  // Drop the variable's old terms from the mirror, then splice in the new
  // ones (ReplaceVariable is rare — dedup representative swaps — so the
  // full sweep is fine).
  for (auto& c : program_.constraints) {
    c.terms.erase(std::remove_if(c.terms.begin(), c.terms.end(),
                                 [var](const std::pair<size_t, double>& t) {
                                   return t.first == var;
                                 }),
                  c.terms.end());
  }
  for (const auto& [row, coef] : terms) {
    AT_CHECK(row < program_.constraints.size());
    program_.constraints[row].terms.push_back({var, coef});
  }
  engine_.ReplaceStructural(var, objective, upper, terms);
}

const Solution& IncrementalSolver::Solve() {
  bool warm = solved_once_ && engine_.basis_valid() &&
              solution_.status == SolveStatus::kOptimal;
  solution_.status = warm ? engine_.ReOptimize() : engine_.SolveFromScratch();
  last_solve_was_warm_ = warm;
  solved_once_ = true;
  if (solution_.status == SolveStatus::kOptimal) {
    engine_.Extract(&solution_);
  } else {
    solution_.values.clear();
    solution_.objective = 0.0;
  }
  return solution_;
}

}  // namespace autotest::lp
