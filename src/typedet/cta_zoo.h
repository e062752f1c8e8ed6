#ifndef AUTOTEST_TYPEDET_CTA_ZOO_H_
#define AUTOTEST_TYPEDET_CTA_ZOO_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ml/features.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace autotest::typedet {

/// The coefficients of one trained zoo. The built-in zoos' coefficients
/// are baked at build time: cta_zoo_bake (tools/cta_zoo_bake) runs the
/// zoo training and writes them into cta_zoo_coefficients.cc as exact
/// hex-float literals. `weights` is row-major per type, weights[t * dim +
/// j] with dim = feature_config.hash_dim + FeatureExtractor::kShapeDims;
/// a type with trained[t] == 0 scores 0.5, like an untrained
/// ml::LogisticRegression.
struct CtaZooCoefficients {
  std::string_view name;  // "sherlock-sim" | "doduo-sim"
  std::span<const std::string_view> type_names;
  ml::FeatureConfig feature_config;
  std::span<const double> weights;
  std::span<const double> biases;
  std::span<const uint8_t> trained;
};

/// A zoo of per-type binary classifiers (CTA as per the paper's Section 3:
/// multi-class CTA viewed as one binary classifier per type). Like the
/// paper's Sherlock and Doduo, the zoo ships pre-trained: it is packed
/// from coefficients, never trained at run time.
class CtaModelZoo {
 public:
  /// Packs the coefficients (copied) into the zoo's transposed scoring
  /// layout. Scores are bit-identical to ml::LogisticRegression::Predict
  /// of the models the coefficients came from.
  static std::unique_ptr<CtaModelZoo> FromCoefficients(
      const CtaZooCoefficients& coefficients);

  /// P(value belongs to type) in [0, 1]. Scores for all types of a value
  /// are computed on first use and memoized (feature extraction dominates
  /// the cost and is shared across the zoo's types).
  double Score(size_t type_index, const std::string& value) const;

  /// Batched Score over a block of values: out[i] receives the type's
  /// score for values[i]. One cache pass per block (lookups under a single
  /// lock, feature extraction for misses outside it) instead of a
  /// lock/find per value. Bit-identical to per-value Score.
  ///
  /// A non-zero (pool_id, block_offset) identifies the block as a stable
  /// slice of an interned value pool (table::ColumnStore). The zoo then
  /// memoizes the block's dense all-type score matrix, so the first
  /// per-type function to touch the block pays the value-cache pass once
  /// and every sibling type's call is a contiguous strided read — no hash
  /// lookups at all. Scores are bit-identical either way: the matrix rows
  /// are the same per-value score vectors the value cache holds.
  void BatchScore(size_t type_index,
                  std::span<const std::string_view> values,
                  std::span<double> out, uint64_t pool_id = 0,
                  size_t block_offset = 0) const;

  const std::string& name() const { return name_; }
  const std::vector<std::string>& type_names() const { return type_names_; }
  size_t num_types() const { return type_names_.size(); }
  const ml::FeatureConfig& feature_config() const {
    return extractor_.config();
  }

  /// The packed coefficients of one type, bit-exact as given to
  /// FromCoefficients (weight index j < FeatureExtractor::dim()).
  double weight(size_t type_index, size_t j) const {
    return wt_[j * num_types() + type_index];
  }
  double bias(size_t type_index) const { return biases_[type_index]; }
  bool trained(size_t type_index) const { return trained_[type_index] != 0; }

 private:
  CtaModelZoo(std::string_view name, std::vector<std::string> type_names,
              const ml::FeatureConfig& feature_config)
      : name_(name),
        type_names_(std::move(type_names)),
        extractor_(feature_config) {}

  /// All-type scores for one feature vector through the packed transposed
  /// weight matrix: feature-index outer, type inner, so every type's
  /// accumulation order matches LogisticRegression::Predict exactly
  /// (bit-identical scores) while the inner loop runs independent
  /// multiply-add chains across types instead of one serial dot product
  /// per model. Zero features are skipped (bit-exact; see the .cc).
  void ScoreAllTypes(const std::vector<float>& features,
                     std::vector<float>* scores) const;

  /// Fetches (or builds and memoizes) the dense num_types-wide score
  /// matrix for one identified pool block. Row i holds all type scores of
  /// values[i], in type order.
  std::shared_ptr<const std::vector<float>> ScoreBlock(
      std::span<const std::string_view> values, uint64_t pool_id,
      size_t block_offset) const;

  std::string name_;
  std::vector<std::string> type_names_;
  ml::FeatureExtractor extractor_;

  // Transposed weights: wt_[j * num_types + t] = weights[t * dim + j].
  std::vector<double> wt_;
  std::vector<double> biases_;
  std::vector<uint8_t> trained_;

  // Transparent hashing so block lookups by string_view need no temporary
  // std::string per probed value.
  struct ValueHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Per-value score cache (all types at once), bounded to keep memory flat
  // across long benchmark sweeps.
  static constexpr size_t kMaxCacheEntries = 2'000'000;
  mutable util::Mutex cache_mu_;
  mutable std::unordered_map<std::string, std::vector<float>, ValueHash,
                             std::equal_to<>>
      score_cache_ AT_GUARDED_BY(cache_mu_);

  // Dense per-block score matrices keyed by (pool_id << 32) | offset,
  // shared across the zoo's per-type eval functions. Bounded; whole-cache
  // eviction like the value cache. shared_ptr entries let readers keep a
  // matrix alive across an eviction without holding the lock.
  static constexpr size_t kMaxBlockCacheFloats = 8'000'000;  // 32 MB
  mutable util::Mutex block_mu_;
  mutable std::unordered_map<uint64_t,
                             std::shared_ptr<const std::vector<float>>>
      block_cache_ AT_GUARDED_BY(block_mu_);
  mutable size_t block_cache_floats_ AT_GUARDED_BY(block_mu_) = 0;
};

/// Process-shared instances of the two built-in zoos, packed from the
/// baked coefficients on first use (a copy, no training). Sherlock-sim covers a subset of NL domains (Sherlock: 78
/// DBpedia types); Doduo-sim covers all NL domains with a different
/// feature space (Doduo: 121 Freebase types). Every EvalFunctionSet::Build
/// reuses one instance, and with it the warm per-value score cache.
/// Thread-safe (magic statics + internally synchronized caches).
std::shared_ptr<CtaModelZoo> SharedSherlockSim();
std::shared_ptr<CtaModelZoo> SharedDoduoSim();

}  // namespace autotest::typedet

#endif  // AUTOTEST_TYPEDET_CTA_ZOO_H_
