#ifndef AUTOTEST_TESTS_CTA_ZOO_REFERENCE_H_
#define AUTOTEST_TESTS_CTA_ZOO_REFERENCE_H_

// Freshly trained CTA zoos: the reference the baked built-in zoos are
// pinned against. Training goes through the build-time training library
// (tools/cta_zoo_bake), packing through the same
// CtaModelZoo::FromCoefficients the SharedSherlockSim()/SharedDoduoSim()
// singletons use.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "cta_zoo_bake/zoo_training.h"
#include "typedet/cta_zoo.h"

namespace autotest::typedet {

inline std::unique_ptr<CtaModelZoo> PackTrainedZoo(
    const TrainedCtaZoo& trained) {
  const size_t nt = trained.type_names.size();
  const size_t dim = ml::FeatureExtractor(trained.feature_config).dim();
  const std::vector<std::string_view> names(trained.type_names.begin(),
                                            trained.type_names.end());
  std::vector<double> weights(nt * dim, 0.0);
  std::vector<double> biases(nt, 0.0);
  std::vector<uint8_t> flags(nt, 0);
  for (size_t t = 0; t < nt; ++t) {
    const ml::LogisticRegression& model = trained.models[t];
    if (!model.trained()) continue;
    flags[t] = 1;
    biases[t] = model.bias();
    std::copy(model.weights().begin(), model.weights().end(),
              weights.begin() + static_cast<ptrdiff_t>(t * dim));
  }
  return CtaModelZoo::FromCoefficients(
      {trained.name, names, trained.feature_config, weights, biases, flags});
}

}  // namespace autotest::typedet

#endif  // AUTOTEST_TESTS_CTA_ZOO_REFERENCE_H_
