#ifndef AUTOTEST_TOOLS_CTA_ZOO_BAKE_ZOO_TRAINING_H_
#define AUTOTEST_TOOLS_CTA_ZOO_BAKE_ZOO_TRAINING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/features.h"
#include "ml/logistic_regression.h"

namespace autotest::typedet {

/// Configuration of one CTA classifier zoo (a simulated Sherlock / Doduo).
struct CtaZooConfig {
  std::string name;  // "sherlock-sim" | "doduo-sim"
  /// Gazetteer domain names to train one binary classifier for.
  std::vector<std::string> type_names;
  ml::FeatureConfig feature_config;
  ml::LogRegConfig train_config;
  /// Negative examples sampled per type (from other domains).
  size_t negatives_per_type = 500;
  uint64_t seed = 1;
};

/// One trained zoo: a binary classifier per type over one feature space
/// (CTA as per the paper's Section 3: multi-class CTA viewed as one
/// binary classifier per type).
struct TrainedCtaZoo {
  std::string name;
  std::vector<std::string> type_names;
  ml::FeatureConfig feature_config;
  std::vector<ml::LogisticRegression> models;  // one per type, in order
};

/// Trains all classifiers (parallelized over types) on gazetteer *head*
/// values, which reproduces the real-world miscalibration on rare values:
/// a valid-but-uncommon member can score low even when the column-level
/// (macro) prediction is right. Deterministic in the config seed.
///
/// This runs at build time only: cta_zoo_bake bakes the result into
/// at_typedet, and tests use it as the reference the baked zoos are
/// pinned against. Nothing that ships links it.
TrainedCtaZoo TrainCtaZoo(const CtaZooConfig& config);

/// The two built-in zoo configs. Sherlock-sim covers a subset of NL
/// domains (Sherlock: 78 DBpedia types); Doduo-sim covers all NL domains
/// with a different feature space (Doduo: 121 Freebase types).
CtaZooConfig SherlockSimConfig();
CtaZooConfig DoduoSimConfig();

}  // namespace autotest::typedet

#endif  // AUTOTEST_TOOLS_CTA_ZOO_BAKE_ZOO_TRAINING_H_
