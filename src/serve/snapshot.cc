#include "serve/snapshot.h"

#include <utility>

#include "core/serialization.h"
#include "util/failpoint.h"
#include "util/metrics.h"

namespace autotest::serve {

namespace {

using util::Status;
using util::StatusCode;

// Loads rules against a caller-owned set. The returned set does not own
// it: the store's contract has the caller keep it alive.
util::Result<core::RuleSet> TryLoadAgainst(
    const typedet::EvalFunctionSet& evals, const std::string& path) {
  core::RuleSet set;
  set.evals = std::shared_ptr<const typedet::EvalFunctionSet>(
      std::shared_ptr<void>(), &evals);
  AT_ASSIGN_OR_RETURN(set.rules, core::TryLoadRulesFromFile(
                                     path, evals, &set.unresolved));
  return set;
}

}  // namespace

SnapshotStore::SnapshotStore(const typedet::EvalFunctionSet* evals,
                             std::string rules_path)
    : evals_(evals), rules_path_(std::move(rules_path)) {}

Status SnapshotStore::TryReload() {
  static metrics::Counter& reloads =
      metrics::Registry::Global().GetCounter(metrics::kMServeReloads);
  static metrics::Counter& reload_failures =
      metrics::Registry::Global().GetCounter(metrics::kMServeReloadFailures);

  // Reloads serialize with each other (version numbers stay monotonic);
  // build-and-validate happens entirely outside mu_, so readers only
  // contend on the final pointer swap. The rule-file read below is
  // blocking I/O under reload_mu_ by design: reload_mu_ exists to
  // serialize reloads, is never taken on the request path, and readers
  // (Get) only ever touch mu_.
  util::MutexLock reload_lock(&reload_mu_);
  uint64_t version;
  {
    util::MutexLock lock(&mu_);
    version = next_version_;
  }

  auto attempt = [&]() -> util::Result<std::shared_ptr<RuleSetSnapshot>> {
    if (auto injected = util::FailpointFiresCode(util::kFpServeReload,
                                                 StatusCode::kIoError)) {
      return util::InjectedFault(*injected, util::kFpServeReload)
          .WithContext("reloading rules from " + rules_path_);
    }
    // reload_mu_ serializes reloads only; it is never taken on the
    // request-serving path, so blocking file I/O under it cannot stall a
    // worker (Get() only touches mu_).
    // at_lint: disable(R8) reload-only lock, never on the request path
    auto loaded = evals_ == nullptr ? core::TryLoadRuleSet(rules_path_)
                                    : TryLoadAgainst(*evals_, rules_path_);
    if (!loaded.ok()) {
      return Status(loaded.status())
          .WithContext("reloading rules from " + rules_path_);
    }
    const size_t unresolved = loaded->unresolved;
    auto snapshot = std::make_shared<RuleSetSnapshot>(
        version, rules_path_, std::move(loaded->evals),
        std::move(loaded->rules), unresolved);
    if (snapshot->predictor().num_rules() == 0) {
      return util::FailedPreconditionError(
                 "rule file has no servable rules (" +
                 std::to_string(snapshot->predictor().skipped_rules()) +
                 " invalid, " + std::to_string(unresolved) + " unresolved)")
          .WithContext("reloading rules from " + rules_path_);
    }
    return snapshot;
  };

  auto candidate = attempt();
  if (!candidate.ok()) {
    reload_failures.Increment();
    return candidate.status();
  }
  {
    util::MutexLock lock(&mu_);
    current_ = std::move(*candidate);
    next_version_ = version + 1;
  }
  reloads.Increment();
  return Status::Ok();
}

std::shared_ptr<const RuleSetSnapshot> SnapshotStore::Get() const {
  util::MutexLock lock(&mu_);
  return current_;
}

uint64_t SnapshotStore::version() const {
  util::MutexLock lock(&mu_);
  return current_ ? current_->version() : 0;
}

}  // namespace autotest::serve
