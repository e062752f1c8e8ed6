#ifndef AUTOTEST_DATAGEN_CORPUS_GEN_H_
#define AUTOTEST_DATAGEN_CORPUS_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "table/shard_loader.h"
#include "table/table.h"
#include "util/status.h"

namespace autotest::datagen {

/// Shape of a training corpus. The three built-in profiles mirror the
/// paper's Table 3 qualitatively: Relational-Tables = long, clean,
/// machine-heavy columns; Spreadsheet-Tables = short, noisier columns;
/// Tablib = mixed.
struct CorpusProfile {
  std::string name;
  size_t num_columns = 4000;
  size_t min_values = 50;
  size_t max_values = 400;
  /// Fraction of corpus columns containing one real error (the corpora are
  /// "generally clean": ~2% per the paper's manual analysis).
  double dirty_column_rate = 0.02;
  /// Probability of drawing tail (rare valid) members in NL columns.
  double tail_fraction = 0.10;
  /// Fraction of columns drawn from machine-generated domains.
  double machine_fraction = 0.45;
  uint64_t seed = 11;
};

CorpusProfile RelationalTablesProfile(size_t num_columns, uint64_t seed = 11);
CorpusProfile SpreadsheetTablesProfile(size_t num_columns, uint64_t seed = 22);
CorpusProfile TablibProfile(size_t num_columns, uint64_t seed = 33);

/// Generates a corpus of columns according to the profile. Deterministic in
/// the profile seed.
table::Corpus GenerateCorpus(const CorpusProfile& profile);

/// The per-shard slice of `profile` for shard `shard` of `num_shards`:
/// columns are split as evenly as possible and each shard derives an
/// independent seed from the profile seed and its index, so a shard's
/// contents never depend on which other shards load. With num_shards == 1
/// the profile is returned unchanged (bit-compatible with the monolithic
/// GenerateCorpus path).
CorpusProfile ShardProfile(const CorpusProfile& profile, size_t shard,
                           size_t num_shards);

/// Generates the corpus shard-by-shard through table::LoadShards: shards
/// run on the parallel pool with per-shard retry, the shard.read /
/// shard.retry failpoints as chaos hooks, and quorum-based degradation
/// per `options`. `include_shard`, when non-empty, restricts generation
/// to those shard indices (reproducing a degraded corpus from its
/// surviving shards). Shards are assembled in ascending index order, so
/// the result is deterministic in (profile.seed, num_shards, mask).
[[nodiscard]] util::Result<table::Corpus> TryGenerateCorpusSharded(
    const CorpusProfile& profile, size_t num_shards,
    const table::ShardLoadOptions& options,
    table::ShardLoadReport* report = nullptr,
    const std::vector<size_t>& include_shard = {});

}  // namespace autotest::datagen

#endif  // AUTOTEST_DATAGEN_CORPUS_GEN_H_
