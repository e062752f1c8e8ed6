#include "core/selection.h"

#include <algorithm>
#include <chrono>

#include "util/check.h"
#include "util/hashing.h"
#include "util/parallel/thread_pool.h"
#include "util/rng.h"

namespace autotest::core {

namespace {

using Clock = std::chrono::steady_clock;

constexpr uint32_t kNoVar = 0xffffffffu;

uint64_t HashIds(const std::vector<uint32_t>& ids) {
  uint64_t h = 1469598103934665603ULL;
  for (uint32_t x : ids) {
    h ^= x;
    h *= 1099511628211ULL;
    h = util::SplitMix64(h);
  }
  return h ^ ids.size();
}

// Deterministic tie-break perturbation on the x objectives: strictly
// negative and unique per rule, ~1e-5 in magnitude. It makes the LP
// optimum generically unique, which is what lets cold solves, warm
// re-solves and the test-tree dense oracle land on the same vertex and
// therefore the same rounded selection. The scale matters on both sides:
// pairwise (and small-subset) perturbation differences must stay well
// above the simplex pricing tolerance (1e-9) or alternate optima within
// tolerance survive, while the worst-case total (max_lp_variables x 2e-5
// = 0.05) must stay below the unit coverage weight so the perturbation
// can never trade away a genuinely covered column.
double PerturbObjective(size_t rule) {
  uint64_t h = util::SplitMix64(0x61757465737471ULL ^
                                (rule * 0x9e3779b97f4a7c15ULL));
  double frac = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
  return -1e-5 * (1.0 + frac);
}

// Collapse solver-level noise at the bound vertices so Bernoulli rounding
// sees exact 0/1 probabilities there.
double Snap01(double v) {
  if (v > 1.0 - 1e-6) return 1.0;
  if (v < 1e-6) return 0.0;
  return v;
}

}  // namespace

IncrementalSelector::IncrementalSelector(const TrainedModel& model,
                                         const SelectionOptions& options,
                                         double delta)
    : model_(model), options_(options), delta_(delta) {}

IncrementalSelector::~IncrementalSelector() = default;

void IncrementalSelector::SetDelta(double delta) {
  if (delta == delta_) return;
  bool narrowing = delta < delta_;
  delta_ = delta;
  if (num_seen_ == 0) return;
  util::parallel::Options par_opt;
  par_opt.num_threads = options_.num_threads;
  if (narrowing) {
    // Eligible sets are monotone in delta: filter the state in place
    // instead of rescanning every detection list.
    util::parallel::ParallelFor(
        num_seen_,
        [&](size_t i) {
          double c = model_.constraints[i].confidence;
          auto& e = eligible_[i];
          e.erase(std::remove_if(e.begin(), e.end(),
                                 [&](uint32_t j) {
                                   return c <
                                          model_.synthetic_conf_all[j] - delta_;
                                 }),
                  e.end());
        },
        par_opt);
  } else {
    util::parallel::ParallelFor(
        num_seen_,
        [&](size_t i) {
          double c = model_.constraints[i].confidence;
          eligible_[i].clear();
          for (uint32_t j : model_.detections[i]) {
            if (c >= model_.synthetic_conf_all[j] - delta_) {
              eligible_[i].push_back(j);
            }
          }
        },
        par_opt);
  }
  RebuildDedup();
}

void IncrementalSelector::IngestCandidates(size_t upto) {
  upto = std::min(upto, model_.constraints.size());
  AT_CHECK(upto >= num_seen_);
  if (upto == num_seen_) return;
  size_t lo = num_seen_;
  eligible_.resize(upto);
  util::parallel::Options par_opt;
  par_opt.num_threads = options_.num_threads;
  util::parallel::ParallelFor(
      upto - lo,
      [&](size_t k) {
        size_t i = lo + k;
        double c = model_.constraints[i].confidence;
        for (uint32_t j : model_.detections[i]) {
          if (c >= model_.synthetic_conf_all[j] - delta_) {
            eligible_[i].push_back(j);
          }
        }
      },
      par_opt);
  num_seen_ = upto;
  DedupStream(lo, upto);
}

void IncrementalSelector::DedupStream(size_t lo, size_t hi) {
  // Deduplicate rules with identical eligible sets: for the LP they are
  // interchangeable columns, so keep the cheapest (min FPR, then max
  // confidence). Replacements rewrite the representative's column in
  // place, preserving positions, so the LP column order stays a pure
  // function of the candidate prefix.
  for (size_t i = lo; i < hi; ++i) {
    if (eligible_[i].empty()) continue;
    uint64_t h = HashIds(eligible_[i]);
    auto it = best_by_set_.find(h);
    if (it == best_by_set_.end()) {
      best_by_set_.emplace(h, kept_.size());
      kept_.push_back(i);
      continue;
    }
    size_t pos = it->second;
    size_t prev = kept_[pos];
    // Hash collision guard: only merge when the sets really match.
    if (eligible_[prev] != eligible_[i]) {
      kept_.push_back(i);
      continue;
    }
    const Sdc& a = model_.constraints[i];
    const Sdc& b = model_.constraints[prev];
    bool better =
        a.fpr < b.fpr || (a.fpr == b.fpr && a.confidence > b.confidence);
    if (!better) continue;
    kept_[pos] = i;
    if (!structure_dirty_ && pos < lp_cols_built_ && lp_.solver != nullptr) {
      std::vector<std::pair<size_t, double>> terms;
      terms.reserve(eligible_[i].size() + 2);
      for (uint32_t j : eligible_[i]) terms.push_back({j, -1.0});
      terms.push_back({model_.num_synthetic, 1.0});
      terms.push_back({model_.num_synthetic + 1, a.fpr});
      lp_.solver->ReplaceVariable(lp_.x_vars[pos], PerturbObjective(i), 1.0,
                                  terms);
    }
  }
}

void IncrementalSelector::RebuildDedup() {
  best_by_set_.clear();
  kept_.clear();
  lp_.solver.reset();
  lp_.x_vars.clear();
  lp_.y_var_of_j.clear();
  lp_cols_built_ = 0;
  structure_dirty_ = true;
  DedupStream(0, num_seen_);
}

IncrementalSelector::BuiltLp IncrementalSelector::BuildProgram(
    const std::vector<size_t>& rules) const {
  // Row skeleton, fixed for the selector's lifetime: one coverage row per
  // synthetic column (y_j <= sum of covering x_i), then the size budget,
  // then the FPR budget. Uncovered columns leave a trivially slack row —
  // the sparse solver prices them at zero cost, and the stable row space
  // is what makes candidate additions pure column operations.
  lp::LinearProgram base;
  for (size_t j = 0; j < model_.num_synthetic; ++j) {
    lp::Constraint c;
    c.type = lp::ConstraintType::kLessEq;
    c.rhs = 0.0;
    base.AddConstraint(std::move(c));
  }
  lp::Constraint size_c;
  size_c.type = lp::ConstraintType::kLessEq;
  size_c.rhs = static_cast<double>(options_.size_budget);
  base.AddConstraint(std::move(size_c));
  lp::Constraint fpr_c;
  fpr_c.type = lp::ConstraintType::kLessEq;
  fpr_c.rhs = options_.fpr_budget;
  base.AddConstraint(std::move(fpr_c));

  BuiltLp built;
  built.solver = std::make_unique<lp::IncrementalSolver>(std::move(base));
  built.y_var_of_j.assign(model_.num_synthetic, kNoVar);
  for (size_t r : rules) AppendColumn(&built, r);
  return built;
}

void IncrementalSelector::AppendColumn(BuiltLp* built, size_t rule) const {
  // Lazy y columns: a coverage variable appears the first time some
  // candidate can cover its synthetic column. Interleaving y's before
  // their first covering x keeps the column order reproducible from the
  // candidate prefix alone (cold rebuilds replay the same sequence).
  for (uint32_t j : eligible_[rule]) {
    if (built->y_var_of_j[j] == kNoVar) {
      built->y_var_of_j[j] = static_cast<uint32_t>(
          built->solver->AddVariable(1.0, 1.0, {{j, 1.0}}));
    }
  }
  std::vector<std::pair<size_t, double>> terms;
  terms.reserve(eligible_[rule].size() + 2);
  for (uint32_t j : eligible_[rule]) terms.push_back({j, -1.0});
  terms.push_back({model_.num_synthetic, 1.0});
  terms.push_back({model_.num_synthetic + 1, model_.constraints[rule].fpr});
  built->x_vars.push_back(built->solver->AddVariable(
      PerturbObjective(rule), 1.0, terms));
}

void IncrementalSelector::RoundAndFinish(const lp::Solution& sol,
                                         const std::vector<size_t>& active_rules,
                                         const std::vector<size_t>& x_vars,
                                         SelectionResult* result) const {
  result->lp_objective = sol.objective;
  // Randomized rounding (Algorithm 1, lines 4-7).
  util::Rng rng(options_.seed);
  std::vector<std::pair<size_t, double>> chosen;  // (rule, lp value)
  for (size_t idx = 0; idx < active_rules.size(); ++idx) {
    double x = Snap01(std::clamp(sol.values[x_vars[idx]], 0.0, 1.0));
    if (rng.Bernoulli(x)) chosen.push_back({active_rules[idx], x});
  }

  if (options_.repair_to_budgets) {
    // Drop the weakest picks until both budgets hold deterministically.
    auto weakest = [&]() {
      size_t arg = 0;
      double best = 1e18;
      for (size_t i = 0; i < chosen.size(); ++i) {
        double v = chosen[i].second /
                   (model_.constraints[chosen[i].first].fpr + 1e-4);
        if (v < best) {
          best = v;
          arg = i;
        }
      }
      return arg;
    };
    double fpr_sum = 0.0;
    for (const auto& [r, x] : chosen) fpr_sum += model_.constraints[r].fpr;
    while (!chosen.empty() && (chosen.size() > options_.size_budget ||
                               fpr_sum > options_.fpr_budget)) {
      size_t i = weakest();
      fpr_sum -= model_.constraints[chosen[i].first].fpr;
      chosen.erase(chosen.begin() + static_cast<ptrdiff_t>(i));
    }
  }

  result->selected.reserve(chosen.size());
  for (const auto& [r, x] : chosen) result->selected.push_back(r);
  std::sort(result->selected.begin(), result->selected.end());
}

std::vector<size_t> IncrementalSelector::PrefilteredRules() const {
  // Greedy pre-filter when the LP would be too large: rank by detection
  // count per unit FPR (scores cached per rule, so the sort compares the
  // exact same doubles regardless of thread count).
  std::vector<double> score(model_.constraints.size(), 0.0);
  util::parallel::Options par_opt;
  par_opt.num_threads = options_.num_threads;
  util::parallel::ParallelFor(
      kept_.size(),
      [&](size_t idx) {
        size_t r = kept_[idx];
        score[r] = static_cast<double>(eligible_[r].size()) /
                   (model_.constraints[r].fpr + 1e-4);
      },
      par_opt);
  std::vector<size_t> rules = kept_;
  std::stable_sort(rules.begin(), rules.end(),
                   [&](size_t a, size_t b) { return score[a] > score[b]; });
  rules.resize(options_.max_lp_variables);
  std::sort(rules.begin(), rules.end());
  return rules;
}

SelectionResult IncrementalSelector::Reselect(size_t num_candidates) {
  auto t0 = Clock::now();  // at_lint: disable(R2) wall-clock phase timing
  auto finish = [&](SelectionResult result) {
    // at_lint: disable(R2) wall-clock phase timing
    result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return result;
  };
  IngestCandidates(num_candidates);
  if (kept_.empty()) {
    SelectionResult result;
    result.lp_status = lp::SolveStatus::kOptimal;
    return finish(result);
  }

  // The LP over the kept stream is persistent and warm-startable; a
  // prefiltered active set is solved once in a throwaway program.
  const std::vector<size_t>* active = &kept_;
  BuiltLp* program = &lp_;
  std::vector<size_t> prefiltered;
  BuiltLp one_shot;
  if (kept_.size() > options_.max_lp_variables) {
    // The active set is no longer a prefix of the kept stream, so warm
    // reuse is off and the persistent LP is dropped.
    lp_.solver.reset();
    lp_.x_vars.clear();
    lp_.y_var_of_j.clear();
    lp_cols_built_ = 0;
    structure_dirty_ = true;
    prefiltered = PrefilteredRules();
    one_shot = BuildProgram(prefiltered);
    active = &prefiltered;
    program = &one_shot;
  } else if (structure_dirty_ || lp_.solver == nullptr) {
    lp_ = BuildProgram(kept_);
    lp_cols_built_ = kept_.size();
    structure_dirty_ = false;
  } else {
    for (size_t pos = lp_cols_built_; pos < kept_.size(); ++pos) {
      AppendColumn(&lp_, kept_[pos]);
    }
    lp_cols_built_ = kept_.size();
  }

  SelectionResult result;
  const lp::Solution& sol = program->solver->Solve();
  result.lp_status = sol.status;
  result.lp_num_variables = program->solver->num_vars();
  result.lp_num_rows = program->solver->num_rows();
  result.warm_started = program->solver->last_solve_was_warm();
  if (sol.status == lp::SolveStatus::kOptimal) {
    RoundAndFinish(sol, *active, program->x_vars, &result);
  }
  return finish(result);
}

SelectionResult IncrementalSelector::SelectAll() {
  return Reselect(model_.constraints.size());
}

SelectionResult SelectWithDelta(const TrainedModel& model,
                                const SelectionOptions& options,
                                double delta) {
  IncrementalSelector selector(model, options, delta);
  return selector.SelectAll();
}

SelectionResult CoarseSelect(const TrainedModel& model,
                             const SelectionOptions& options) {
  return SelectWithDelta(model, options, /*delta=*/1.0);
}

SelectionResult FineSelect(const TrainedModel& model,
                           const SelectionOptions& options) {
  return SelectWithDelta(model, options, options.delta);
}

SelectionResult CoarseThenFineSelect(const TrainedModel& model,
                                     const SelectionOptions& options,
                                     SelectionResult* coarse_out) {
  IncrementalSelector selector(model, options, /*delta=*/1.0);
  SelectionResult coarse = selector.SelectAll();
  if (coarse_out != nullptr) *coarse_out = coarse;
  selector.SetDelta(options.delta);
  return selector.SelectAll();
}

}  // namespace autotest::core
