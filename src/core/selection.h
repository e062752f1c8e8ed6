#ifndef AUTOTEST_CORE_SELECTION_H_
#define AUTOTEST_CORE_SELECTION_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/trainer.h"
#include "lp/incremental.h"
#include "lp/simplex.h"

namespace autotest::core {

/// Options for the CSS / FSS selection step (paper Section 5.3).
struct SelectionOptions {
  size_t size_budget = 500;  // B_size
  double fpr_budget = 0.1;   // B_FPR
  /// Fine-Select confidence-approximation tolerance; delta >= 1 makes FSS
  /// degenerate to CSS (paper Definition 5).
  double delta = 1e-3;
  uint64_t seed = 1234;
  /// LP-size guard: candidates beyond this are pre-filtered greedily by
  /// detection count per unit FPR before the LP is built.
  size_t max_lp_variables = 2500;
  /// Optional post-rounding repair to meet the budgets deterministically
  /// (the paper's guarantees hold in expectation without repair).
  bool repair_to_budgets = false;
  /// Workers for the per-candidate scoring passes (0 = hardware
  /// concurrency). Results are written to per-candidate slots, so the
  /// selection outcome is independent of this setting.
  size_t num_threads = 0;
};

struct SelectionResult {
  /// Indices into TrainedModel::constraints.
  std::vector<size_t> selected;
  double lp_objective = 0.0;
  lp::SolveStatus lp_status = lp::SolveStatus::kIterationLimit;
  size_t lp_num_variables = 0;
  size_t lp_num_rows = 0;
  double seconds = 0.0;
  /// True when the LP re-priced from a previous optimal basis instead of
  /// running the full two-phase method.
  bool warm_started = false;
};

/// Coarse-grained SDC Selection (Algorithm 1): LP-relaxation of the
/// max-coverage ILP with size and FPR budgets, then randomized rounding.
SelectionResult CoarseSelect(const TrainedModel& model,
                             const SelectionOptions& options = {});

/// Fine-grained SDC Selection: like CSS, but a constraint only counts as
/// covering synthetic column j if its confidence is within delta of
/// conf(C_j, R_all), preserving the confidence calibration of the full set.
SelectionResult FineSelect(const TrainedModel& model,
                           const SelectionOptions& options = {});

/// Shared implementation; delta >= 1 reproduces CoarseSelect exactly.
SelectionResult SelectWithDelta(const TrainedModel& model,
                                const SelectionOptions& options,
                                double delta);

/// The paper pipeline's two-round flow: a coarse round (delta = 1)
/// followed by a fine round (options.delta), run through one
/// IncrementalSelector so the fine round narrows the coarse round's
/// eligibility state in place instead of rescanning every detection list.
/// Returns the fine result; the coarse result is written to `coarse_out`
/// when non-null. The fine result is identical to FineSelect(...).
SelectionResult CoarseThenFineSelect(const TrainedModel& model,
                                     const SelectionOptions& options,
                                     SelectionResult* coarse_out = nullptr);

/// Incremental CSS/FSS selector over a growing candidate stream.
///
/// The LP row skeleton (one coverage row per synthetic column plus the
/// size and FPR budget rows) is fixed at construction, so considering
/// more candidates is a pure column addition: Reselect re-prices from the
/// previous optimal basis instead of solving from scratch. The candidate
/// processing order, deduplication, LP column order, and rounding draws
/// are all pure functions of (model, options, delta, num_candidates), so
/// a warm Reselect returns the same SelectionResult as a cold
/// SelectWithDelta over the same prefix — the property suite enforces it.
class IncrementalSelector {
 public:
  IncrementalSelector(const TrainedModel& model, const SelectionOptions& options,
                      double delta);
  ~IncrementalSelector();

  /// Selects over the first `num_candidates` rules of the model. Counts
  /// are clamped to the model size and must not shrink across calls.
  SelectionResult Reselect(size_t num_candidates);

  /// Selects over every candidate in the model.
  SelectionResult SelectAll();

  /// Switches the Fine-Select tolerance. When delta shrinks, eligibility
  /// sets are narrowed in place (they are monotone in delta); the LP is
  /// rebuilt cold on the next solve because dedup representatives can
  /// change non-monotonically.
  void SetDelta(double delta);

  double delta() const { return delta_; }
  size_t num_candidates_seen() const { return num_seen_; }

 private:
  // The LP mirror plus the bookkeeping to map kept candidates to columns.
  struct BuiltLp {
    std::unique_ptr<lp::IncrementalSolver> solver;
    std::vector<size_t> x_vars;        // parallel to the rule list built
    std::vector<uint32_t> y_var_of_j;  // kNoVar when the column is absent
  };

  void IngestCandidates(size_t upto);
  void RebuildDedup();
  void DedupStream(size_t lo, size_t hi);
  BuiltLp BuildProgram(const std::vector<size_t>& rules) const;
  void AppendColumn(BuiltLp* built, size_t rule) const;
  void RoundAndFinish(const lp::Solution& sol,
                      const std::vector<size_t>& active_rules,
                      const std::vector<size_t>& x_vars,
                      SelectionResult* result) const;
  std::vector<size_t> PrefilteredRules() const;

  const TrainedModel& model_;
  SelectionOptions options_;
  double delta_;
  size_t num_seen_ = 0;
  // Per seen rule: synthetic columns it may cover under delta_.
  std::vector<std::vector<uint32_t>> eligible_;
  // Dedup state: eligible-set hash -> position in kept_.
  std::unordered_map<uint64_t, size_t> best_by_set_;
  std::vector<size_t> kept_;  // representative rules, stable positions
  // Persistent warm program over kept_ (absent when dirty or prefiltered).
  BuiltLp lp_;
  size_t lp_cols_built_ = 0;  // kept_ positions already in lp_
  bool structure_dirty_ = true;
};

}  // namespace autotest::core

#endif  // AUTOTEST_CORE_SELECTION_H_
