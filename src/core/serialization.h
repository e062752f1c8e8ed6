#ifndef AUTOTEST_CORE_SERIALIZATION_H_
#define AUTOTEST_CORE_SERIALIZATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sdc.h"
#include "typedet/eval_functions.h"
#include "util/status.h"

namespace autotest::core {

/// Persistence for learned rule sets: the offline stage runs once, and the
/// online stage loads the distilled rules (paper Figure 5's deployment
/// split).
///
/// Format: a line-oriented text file. Each rule line carries the stable
/// evaluation-function id plus the learned parameters and calibration
/// statistics. The id names its function completely (grammar in
/// typedet/eval_resolver.h: CTA zoo + type, embedding model + centroid
/// value, pattern, validator, hash seed), so a rule file is
/// self-contained: TryLoadRuleSet rebuilds every function it references
/// with no corpus and no training. Loading against a prebuilt
/// EvalFunctionSet (the overloads taking one) resolves the same ids by
/// lookup instead.
///
///   # autotest-sdc v1
///   rule <eval-id> <d_in> <d_out> <m> <conf> <fpr> <ct> <cnt> <ut> <unt>
///        <h> <p>
///
/// Fields are tab-separated; ids are escaped (\t, \n, \\).

/// Serializes rules to the text format.
std::string SerializeRules(const std::vector<Sdc>& rules);

/// Maps an (unescaped) eval id to its evaluation function; nullptr when
/// the id does not resolve. The function must outlive the parsed rules.
using EvalResolver =
    std::function<const typedet::DomainEvalFunction*(std::string_view id)>;

/// Parses rules and resolves their evaluation functions through
/// `resolve`. Rules whose eval id does not resolve are skipped and counted
/// in *unresolved (if non-null) — a counted degradation, not an error.
/// Sdc::eval_index is left 0; the overloads below fill it in.
///
/// Everything else about the input is treated as untrusted: errors carry
/// the 1-based line number and the offending field name. kInvalidArgument
/// for a missing or wrong-version header and for semantically invalid
/// parameters (non-finite values, d_in > d_out, m/conf/fpr outside [0,1],
/// negative contingency counts); kDataLoss for truncated or corrupt rule
/// lines.
[[nodiscard]] util::Result<std::vector<Sdc>> TryDeserializeRules(
    std::string_view text, const EvalResolver& resolve,
    size_t* unresolved = nullptr);

/// TryDeserializeRules resolving ids against `evals` (FindEvalById), with
/// Sdc::eval_index set to the function's position in `evals`.
[[nodiscard]] util::Result<std::vector<Sdc>> TryDeserializeRules(
    std::string_view text, const typedet::EvalFunctionSet& evals,
    size_t* unresolved = nullptr);

/// Loads rules from a file; kNotFound/kIoError for unreadable files, else
/// TryDeserializeRules diagnostics with the path as context.
[[nodiscard]] util::Result<std::vector<Sdc>> TryLoadRulesFromFile(
    const std::string& path, const EvalResolver& resolve,
    size_t* unresolved = nullptr);
[[nodiscard]] util::Result<std::vector<Sdc>> TryLoadRulesFromFile(
    const std::string& path, const typedet::EvalFunctionSet& evals,
    size_t* unresolved = nullptr);

/// Rules together with the evaluation functions they reference.
struct RuleSet {
  /// One function per distinct resolved id, in order of first appearance
  /// in the file (rules sharing an id share one object, which keeps the
  /// predictor's per-function grouping). Shared so a serving snapshot can
  /// keep it alive for as long as a request holds the snapshot.
  std::shared_ptr<const typedet::EvalFunctionSet> evals;
  /// Each rule's eval points into *evals; eval_index is its position.
  std::vector<Sdc> rules;
  /// Rules skipped because their id named no function this process can
  /// build (typedet::TryMakeEvalFromId failed).
  size_t unresolved = 0;
};

/// The self-contained loader: parses rules and builds the functions their
/// ids name (typedet::TryMakeEvalFromId), no corpus or training needed.
/// Diagnostics as TryDeserializeRules / TryLoadRulesFromFile.
[[nodiscard]] util::Result<RuleSet> TryDeserializeRuleSet(
    std::string_view text);
[[nodiscard]] util::Result<RuleSet> TryLoadRuleSet(const std::string& path);

/// Atomically writes rules to `path`: serializes into `path` + ".tmp" and
/// renames over the target, so a failed save never leaves a truncated
/// rules.sdc behind. kIoError on any write/rename failure.
[[nodiscard]] util::Status TrySaveRulesToFile(const std::vector<Sdc>& rules,
                                              const std::string& path);

/// Legacy shims over the Try* functions; they discard the diagnostic.
bool SaveRulesToFile(const std::vector<Sdc>& rules, const std::string& path);
std::optional<std::vector<Sdc>> DeserializeRules(
    std::string_view text, const typedet::EvalFunctionSet& evals,
    size_t* unresolved = nullptr);
std::optional<std::vector<Sdc>> LoadRulesFromFile(
    const std::string& path, const typedet::EvalFunctionSet& evals,
    size_t* unresolved = nullptr);

/// Finds an evaluation function by id; nullptr if absent. (Declared here
/// to keep EvalFunctionSet's surface minimal.)
const typedet::DomainEvalFunction* FindEvalById(
    const typedet::EvalFunctionSet& evals, std::string_view id);

}  // namespace autotest::core

#endif  // AUTOTEST_CORE_SERIALIZATION_H_
