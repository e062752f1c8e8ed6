// Reference dense tableau simplex (test oracle). See dense_tableau.h.

#include "lp_oracle/dense_tableau.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace autotest::lp {

namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

// Dense tableau simplex with native variable upper bounds.
//
// Invariant: for each row i, the variable basis[i] is basic with current
// value vals[i]; every nonbasic variable sits at 0 or (if at_upper) at its
// finite upper bound. T is the tableau of the full system after the pivots
// performed so far; d is the reduced-cost row for the current phase.
class Tableau {
 public:
  Tableau(const LinearProgram& lp) {
    n_struct_ = lp.num_vars;
    m_ = lp.constraints.size();

    // Count auxiliary columns.
    size_t num_artificial = 0;
    for (const auto& c : lp.constraints) {
      ConstraintType type = c.type;
      if (c.rhs < 0) type = Flip(type);
      if (type != ConstraintType::kLessEq) ++num_artificial;
    }
    slack_begin_ = n_struct_;
    art_begin_ = n_struct_ + m_;
    n_ = art_begin_ + num_artificial;

    upper_.assign(n_, kInf);
    for (size_t j = 0; j < n_struct_; ++j) upper_[j] = lp.upper_bounds[j];

    t_.assign(m_ * n_, 0.0);
    vals_.assign(m_, 0.0);
    basis_.assign(m_, 0);
    at_upper_.assign(n_, false);
    is_basic_.assign(n_, false);

    size_t art = art_begin_;
    for (size_t i = 0; i < m_; ++i) {
      const Constraint& c = lp.constraints[i];
      double sign = c.rhs < 0 ? -1.0 : 1.0;
      ConstraintType type = c.rhs < 0 ? Flip(c.type) : c.type;
      for (const auto& [var, coef] : c.terms) {
        AT_CHECK(var < n_struct_);
        At(i, var) += sign * coef;
      }
      double rhs = sign * c.rhs;
      size_t slack = slack_begin_ + i;
      switch (type) {
        case ConstraintType::kLessEq:
          At(i, slack) = 1.0;
          SetBasic(i, slack, rhs);
          break;
        case ConstraintType::kGreaterEq:
          At(i, slack) = -1.0;
          At(i, art) = 1.0;
          SetBasic(i, art, rhs);
          ++art;
          break;
        case ConstraintType::kEqual:
          upper_[slack] = 0.0;  // unused slack pinned at zero
          At(i, art) = 1.0;
          SetBasic(i, art, rhs);
          ++art;
          break;
      }
    }
  }

  // Runs both phases; returns the final status.
  SolveStatus Solve(const LinearProgram& lp) {
    if (art_begin_ < n_) {
      // Phase 1: maximize -sum(artificials).
      std::vector<double> cost(n_, 0.0);
      for (size_t j = art_begin_; j < n_; ++j) cost[j] = -1.0;
      SolveStatus s = RunSimplex(cost, /*allow_artificial_entering=*/true);
      if (s != SolveStatus::kOptimal) return s;
      double infeasibility = 0.0;
      for (size_t i = 0; i < m_; ++i) {
        if (basis_[i] >= art_begin_) infeasibility += std::fabs(vals_[i]);
      }
      for (size_t j = art_begin_; j < n_; ++j) {
        if (!is_basic_[j] && at_upper_[j]) infeasibility += upper_[j];
      }
      if (infeasibility > 1e-6) return SolveStatus::kInfeasible;
      DriveOutArtificials();
      for (size_t j = art_begin_; j < n_; ++j) upper_[j] = 0.0;
    }
    // Phase 2.
    std::vector<double> cost(n_, 0.0);
    for (size_t j = 0; j < n_struct_; ++j) cost[j] = lp.objective[j];
    return RunSimplex(cost, /*allow_artificial_entering=*/false);
  }

  void ExtractSolution(const LinearProgram& lp, Solution* out) const {
    out->values.assign(n_struct_, 0.0);
    for (size_t j = 0; j < n_struct_; ++j) {
      if (at_upper_[j]) out->values[j] = upper_[j];
    }
    for (size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_struct_) out->values[basis_[i]] = vals_[i];
    }
    out->objective = 0.0;
    for (size_t j = 0; j < n_struct_; ++j) {
      out->objective += lp.objective[j] * out->values[j];
    }
  }

 private:
  static ConstraintType Flip(ConstraintType t) {
    switch (t) {
      case ConstraintType::kLessEq:
        return ConstraintType::kGreaterEq;
      case ConstraintType::kGreaterEq:
        return ConstraintType::kLessEq;
      case ConstraintType::kEqual:
        return ConstraintType::kEqual;
    }
    return t;
  }

  double& At(size_t i, size_t j) { return t_[i * n_ + j]; }
  double At(size_t i, size_t j) const { return t_[i * n_ + j]; }

  void SetBasic(size_t row, size_t var, double value) {
    basis_[row] = var;
    vals_[row] = value;
    is_basic_[var] = true;
  }

  // Computes the reduced-cost row d_j = c_j - sum_i c_basis(i) * T(i, j).
  std::vector<double> ReducedCosts(const std::vector<double>& cost) const {
    std::vector<double> d = cost;
    for (size_t i = 0; i < m_; ++i) {
      double cb = cost[basis_[i]];
      if (cb == 0.0) continue;
      const double* row = &t_[i * n_];
      for (size_t j = 0; j < n_; ++j) d[j] -= cb * row[j];
    }
    return d;
  }

  // After phase 1: pivot basic artificials (at value 0) out of the basis
  // where possible; redundant rows keep their artificial pinned at 0.
  void DriveOutArtificials() {
    for (size_t i = 0; i < m_; ++i) {
      if (basis_[i] < art_begin_) continue;
      size_t pivot_col = n_;
      for (size_t j = 0; j < art_begin_; ++j) {
        if (!is_basic_[j] && std::fabs(At(i, j)) > 1e-7) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col == n_) continue;  // redundant row
      Pivot(i, pivot_col, nullptr);
      at_upper_[pivot_col] = false;
    }
  }

  // Performs the elimination step of a pivot at (row, col). If d is
  // non-null the reduced-cost row is updated too. Basis bookkeeping
  // included; vals_ must already reflect the post-pivot basic values except
  // vals_[row], which the caller sets (or is preserved for degenerate
  // drive-out pivots where the value stays 0).
  void Pivot(size_t row, size_t col, std::vector<double>* d) {
    double piv = At(row, col);
    AT_CHECK(std::fabs(piv) > 1e-12);
    double inv = 1.0 / piv;
    double* prow = &t_[row * n_];
    for (size_t j = 0; j < n_; ++j) prow[j] *= inv;
    prow[col] = 1.0;  // exact
    for (size_t i = 0; i < m_; ++i) {
      if (i == row) continue;
      double f = At(i, col);
      if (f == 0.0) continue;
      double* irow = &t_[i * n_];
      for (size_t j = 0; j < n_; ++j) irow[j] -= f * prow[j];
      irow[col] = 0.0;  // exact
    }
    if (d != nullptr) {
      double f = (*d)[col];
      if (f != 0.0) {
        for (size_t j = 0; j < n_; ++j) (*d)[j] -= f * prow[j];
        (*d)[col] = 0.0;
      }
    }
    is_basic_[basis_[row]] = false;
    basis_[row] = col;
    is_basic_[col] = true;
  }

  SolveStatus RunSimplex(const std::vector<double>& cost,
                         bool allow_artificial_entering) {
    std::vector<double> d = ReducedCosts(cost);
    size_t limit_cols = allow_artificial_entering ? n_ : art_begin_;
    size_t max_iter = 200 * (m_ + n_) + 1000;
    size_t bland_after = 20 * (m_ + n_) + 200;

    for (size_t iter = 0; iter < max_iter; ++iter) {
      bool bland = iter >= bland_after;
      // Entering variable.
      size_t e = n_;
      double best = kEps;
      for (size_t j = 0; j < limit_cols; ++j) {
        if (is_basic_[j]) continue;
        if (upper_[j] == 0.0) continue;  // pinned
        double improvement = at_upper_[j] ? -d[j] : d[j];
        if (improvement > kEps) {
          if (bland) {
            e = j;
            break;
          }
          if (improvement > best) {
            best = improvement;
            e = j;
          }
        }
      }
      if (e == n_) return SolveStatus::kOptimal;

      double sigma = at_upper_[e] ? -1.0 : 1.0;
      // Ratio test.
      double t_best = upper_[e] == kInf ? kInf : upper_[e];
      size_t leave_row = m_;  // m_ = none (bound flip)
      bool leave_to_upper = false;
      for (size_t i = 0; i < m_; ++i) {
        double a = sigma * At(i, e);
        double t;
        bool to_upper;
        if (a > kEps) {
          t = std::max(0.0, vals_[i]) / a;
          to_upper = false;
        } else if (a < -kEps && upper_[basis_[i]] != kInf) {
          t = std::max(0.0, upper_[basis_[i]] - vals_[i]) / (-a);
          to_upper = true;
        } else {
          continue;
        }
        bool better = t < t_best - kEps;
        bool tie = !better && t < t_best + kEps;
        if (better ||
            (tie && (leave_row == m_ ||
                     (bland && leave_row != m_ &&
                      basis_[i] < basis_[leave_row])))) {
          t_best = t;
          leave_row = i;
          leave_to_upper = to_upper;
        }
      }
      if (t_best == kInf) return SolveStatus::kUnbounded;

      if (leave_row == m_) {
        // Bound flip: the entering variable jumps to its other bound.
        for (size_t i = 0; i < m_; ++i) {
          vals_[i] -= sigma * upper_[e] * At(i, e);
        }
        at_upper_[e] = !at_upper_[e];
        continue;
      }

      size_t l = basis_[leave_row];
      double entering_value = (at_upper_[e] ? upper_[e] : 0.0) +
                              sigma * t_best;
      for (size_t i = 0; i < m_; ++i) {
        if (i != leave_row) vals_[i] -= sigma * t_best * At(i, e);
      }
      Pivot(leave_row, e, &d);
      vals_[leave_row] = entering_value;
      at_upper_[e] = false;
      at_upper_[l] = leave_to_upper && upper_[l] != kInf;
    }
    return SolveStatus::kIterationLimit;
  }

  size_t n_struct_ = 0;
  size_t m_ = 0;
  size_t n_ = 0;
  size_t slack_begin_ = 0;
  size_t art_begin_ = 0;
  std::vector<double> t_;
  std::vector<double> vals_;
  std::vector<size_t> basis_;
  std::vector<bool> at_upper_;
  std::vector<bool> is_basic_;
  std::vector<double> upper_;
};

}  // namespace

Solution SolveLpDense(const LinearProgram& lp) {
  AT_CHECK(lp.objective.size() == lp.num_vars);
  AT_CHECK(lp.upper_bounds.size() == lp.num_vars);
  Solution out;
  if (lp.num_vars == 0 && lp.constraints.empty()) {
    // Empty LP: trivially optimal at objective 0 (regression: the
    // Solution default of kIterationLimit must not leak out).
    out.status = SolveStatus::kOptimal;
    return out;
  }
  Tableau tableau(lp);
  out.status = tableau.Solve(lp);
  if (out.status == SolveStatus::kOptimal) {
    tableau.ExtractSolution(lp, &out);
  }
  return out;
}

}  // namespace autotest::lp
