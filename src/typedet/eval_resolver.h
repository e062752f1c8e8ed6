#ifndef AUTOTEST_TYPEDET_EVAL_RESOLVER_H_
#define AUTOTEST_TYPEDET_EVAL_RESOLVER_H_

#include <memory>
#include <string_view>

#include "typedet/domain_eval.h"
#include "util/status.h"

namespace autotest::typedet {

/// Rebuilds the evaluation function that a stable id names, with no corpus
/// and no training: a rule file carries everything the online stage needs
/// (paper Figure 5's offline/online split). The grammar is the one the
/// functions in eval_functions.cc write into their ids:
///
///   cta:<zoo>:<type>        one type of a built-in CTA zoo singleton
///   emb:<model>:<centroid>  distance to a centroid value the built-in
///                           embedding model can embed
///   pat:<pattern>           a pattern in canonical Pattern::ToString form
///   fun:<validator>         a validator from AllValidators()
///   hash:<seed>             a random-hash function; canonical decimal u64
///
/// Ids come from rule files, so they are untrusted bytes: every part is
/// checked here before a factory that would AT_CHECK it sees it. kNotFound
/// for an unknown family, zoo, type, model or validator; kInvalidArgument
/// for an unembeddable centroid, a malformed pattern or seed, or any
/// spelling other than the canonical one (an id names exactly one
/// function, and that function's id() equals it). Evaluation functions
/// registered by hand through EvalFunctionSet::Add have no entry in this
/// grammar and resolve kNotFound.
[[nodiscard]] util::Result<std::unique_ptr<DomainEvalFunction>>
TryMakeEvalFromId(std::string_view id);

}  // namespace autotest::typedet

#endif  // AUTOTEST_TYPEDET_EVAL_RESOLVER_H_
