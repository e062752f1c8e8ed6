#include "typedet/cta_zoo.h"

#include "ml/logistic_regression.h"
#include "typedet/cta_zoo_coefficients.h"
#include "util/check.h"

namespace autotest::typedet {

std::unique_ptr<CtaModelZoo> CtaModelZoo::FromCoefficients(
    const CtaZooCoefficients& c) {
  const size_t nt = c.type_names.size();
  AT_CHECK(nt > 0 && c.biases.size() == nt && c.trained.size() == nt);
  auto zoo = std::unique_ptr<CtaModelZoo>(new CtaModelZoo(
      c.name, std::vector<std::string>(c.type_names.begin(),
                                       c.type_names.end()),
      c.feature_config));
  const size_t dim = zoo->extractor_.dim();
  AT_CHECK(c.weights.size() == nt * dim);
  zoo->wt_.assign(dim * nt, 0.0);
  zoo->biases_.assign(nt, 0.0);
  zoo->trained_.assign(nt, 0);
  for (size_t t = 0; t < nt; ++t) {
    if (c.trained[t] == 0) continue;  // scores 0.5 like Predict
    zoo->trained_[t] = 1;
    zoo->biases_[t] = c.biases[t];
    for (size_t j = 0; j < dim; ++j) {
      zoo->wt_[j * nt + t] = c.weights[t * dim + j];
    }
  }
  return zoo;
}

void CtaModelZoo::ScoreAllTypes(const std::vector<float>& features,
                                std::vector<float>* scores) const {
  const size_t nt = num_types();
  const size_t dim = extractor_.dim();
  AT_CHECK(features.size() == dim);
  std::vector<double> acc(biases_);
  for (size_t j = 0; j < dim; ++j) {
    // Most hashed n-gram buckets of a value are empty. A zero feature only
    // adds a signed zero to each accumulator, which can change nothing but
    // the sign of a zero sum, and Sigmoid(+0) == Sigmoid(-0): skipping it
    // is bit-exact.
    if (features[j] == 0.0f) continue;
    const double xj = static_cast<double>(features[j]);
    const double* row = &wt_[j * nt];
    for (size_t t = 0; t < nt; ++t) acc[t] += row[t] * xj;
  }
  scores->resize(nt);
  for (size_t t = 0; t < nt; ++t) {
    (*scores)[t] =
        trained_[t] != 0 ? static_cast<float>(ml::Sigmoid(acc[t])) : 0.5f;
  }
}

double CtaModelZoo::Score(size_t type_index, const std::string& value) const {
  AT_CHECK(type_index < num_types());
  {
    util::MutexLock lock(&cache_mu_);
    auto it = score_cache_.find(value);
    if (it != score_cache_.end()) {
      return static_cast<double>(it->second[type_index]);
    }
  }
  std::vector<float> features = extractor_.Extract(value);
  std::vector<float> scores;
  ScoreAllTypes(features, &scores);
  double out = static_cast<double>(scores[type_index]);
  util::MutexLock lock(&cache_mu_);
  if (score_cache_.size() >= kMaxCacheEntries) score_cache_.clear();
  score_cache_.emplace(value, std::move(scores));
  return out;
}

std::shared_ptr<const std::vector<float>> CtaModelZoo::ScoreBlock(
    std::span<const std::string_view> values, uint64_t pool_id,
    size_t block_offset) const {
  const uint64_t key = (pool_id << 32) | static_cast<uint64_t>(block_offset);
  {
    util::MutexLock lock(&block_mu_);
    auto it = block_cache_.find(key);
    if (it != block_cache_.end()) return it->second;
  }
  const size_t nt = num_types();
  auto matrix = std::make_shared<std::vector<float>>(values.size() * nt);
  // Row-fill from the value cache; misses are scored outside the lock, so
  // the matrix rows are exactly the vectors per-value Score would cache.
  std::vector<size_t> misses;
  {
    util::MutexLock lock(&cache_mu_);
    for (size_t i = 0; i < values.size(); ++i) {
      auto it = score_cache_.find(values[i]);
      if (it == score_cache_.end()) {
        misses.push_back(i);
        continue;
      }
      std::copy(it->second.begin(), it->second.end(),
                matrix->begin() + static_cast<ptrdiff_t>(i * nt));
    }
  }
  if (!misses.empty()) {
    std::vector<std::vector<float>> computed(misses.size());
    for (size_t k = 0; k < misses.size(); ++k) {
      std::vector<float> features = extractor_.Extract(values[misses[k]]);
      ScoreAllTypes(features, &computed[k]);
      std::copy(computed[k].begin(), computed[k].end(),
                matrix->begin() + static_cast<ptrdiff_t>(misses[k] * nt));
    }
    util::MutexLock lock(&cache_mu_);
    for (size_t k = 0; k < misses.size(); ++k) {
      if (score_cache_.size() >= kMaxCacheEntries) score_cache_.clear();
      score_cache_.emplace(std::string(values[misses[k]]),
                           std::move(computed[k]));
    }
  }
  util::MutexLock lock(&block_mu_);
  auto [it, inserted] = block_cache_.emplace(key, matrix);
  if (inserted) {
    block_cache_floats_ += matrix->size();
    if (block_cache_floats_ > kMaxBlockCacheFloats) {
      // Whole-cache eviction; the caller's shared_ptr stays valid, and the
      // next request simply rebuilds from the (still warm) value cache.
      block_cache_.clear();
      block_cache_floats_ = 0;
    }
    return matrix;
  }
  return it->second;  // racing thread published an identical matrix first
}

void CtaModelZoo::BatchScore(size_t type_index,
                             std::span<const std::string_view> values,
                             std::span<double> out, uint64_t pool_id,
                             size_t block_offset) const {
  AT_CHECK(type_index < num_types() && out.size() >= values.size());
  if (pool_id != 0) {
    const std::shared_ptr<const std::vector<float>> matrix =
        ScoreBlock(values, pool_id, block_offset);
    const size_t nt = num_types();
    const float* m = matrix->data();
    for (size_t i = 0; i < values.size(); ++i) {
      out[i] = static_cast<double>(m[i * nt + type_index]);
    }
    return;
  }
  std::vector<size_t> misses;
  {
    util::MutexLock lock(&cache_mu_);
    for (size_t i = 0; i < values.size(); ++i) {
      auto it = score_cache_.find(values[i]);
      if (it == score_cache_.end()) {
        misses.push_back(i);
        continue;
      }
      out[i] = static_cast<double>(it->second[type_index]);
    }
  }
  if (misses.empty()) return;
  // Feature extraction + all per-type predictions happen outside the lock;
  // racing threads compute identical score vectors.
  std::vector<std::vector<float>> computed(misses.size());
  for (size_t k = 0; k < misses.size(); ++k) {
    std::vector<float> features = extractor_.Extract(values[misses[k]]);
    ScoreAllTypes(features, &computed[k]);
    out[misses[k]] = static_cast<double>(computed[k][type_index]);
  }
  util::MutexLock lock(&cache_mu_);
  for (size_t k = 0; k < misses.size(); ++k) {
    if (score_cache_.size() >= kMaxCacheEntries) score_cache_.clear();
    score_cache_.emplace(std::string(values[misses[k]]),
                         std::move(computed[k]));
  }
}

std::shared_ptr<CtaModelZoo> SharedSherlockSim() {
  // Leaky magic static: one process-wide instance (with its warm score
  // cache) serves every EvalFunctionSet::Build.
  static const auto& zoo = *new std::shared_ptr<CtaModelZoo>(
      CtaModelZoo::FromCoefficients(kSherlockSimCoefficients));
  return zoo;
}

std::shared_ptr<CtaModelZoo> SharedDoduoSim() {
  static const auto& zoo = *new std::shared_ptr<CtaModelZoo>(
      CtaModelZoo::FromCoefficients(kDoduoSimCoefficients));
  return zoo;
}

}  // namespace autotest::typedet
