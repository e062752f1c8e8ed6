#ifndef AUTOTEST_TESTS_LP_ORACLE_DENSE_TABLEAU_H_
#define AUTOTEST_TESTS_LP_ORACLE_DENSE_TABLEAU_H_

#include "lp/simplex.h"

namespace autotest::lp {

/// Reference oracle for the LP tests: a dense two-phase tableau simplex
/// with native variable upper bounds and the same contract as SolveLp.
/// It lives in the test tree only (library at_lp_oracle, which no src/
/// target may link) so the differential suite can prove the sparse
/// revised simplex equivalent; it must never grow features SolveLp lacks.
Solution SolveLpDense(const LinearProgram& lp);

}  // namespace autotest::lp

#endif  // AUTOTEST_TESTS_LP_ORACLE_DENSE_TABLEAU_H_
