// Self-contained rule artifacts (DESIGN.md §4l): a rule file's eval ids
// name their functions completely, so the online stage rebuilds them with
// no corpus and no training.
//
// The headline property: for relational, spreadsheet and tablib corpora at
// three seeds each, trained with 1 and 4 threads, rules loaded by id
// (TryDeserializeRuleSet) detect exactly what the same rules loaded against
// the trained EvalFunctionSet detect — row, value, confidence, rule and
// explanation — on a seeded RT-Bench.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/predictor.h"
#include "core/serialization.h"
#include "core/trainer.h"
#include "datagen/bench_gen.h"
#include "datagen/corpus_gen.h"
#include "embed/embedding.h"
#include "pattern/miner.h"
#include "pattern/pattern.h"
#include "typedet/eval_functions.h"
#include "typedet/eval_resolver.h"
#include "util/status.h"

namespace autotest::core {
namespace {

using util::StatusCode;

datagen::CorpusProfile ProfileFor(const std::string& corpus, size_t columns,
                                  uint64_t seed) {
  if (corpus == "spreadsheet") {
    return datagen::SpreadsheetTablesProfile(columns, seed);
  }
  if (corpus == "tablib") return datagen::TablibProfile(columns, seed);
  return datagen::RelationalTablesProfile(columns, seed);
}

// Sample values spanning every family's domain: in-vocabulary words,
// machine formats, junk.
const std::vector<std::string>& ProbeValues() {
  static const auto& v = *new std::vector<std::string>{
      "seattle", "Paris",      "france",       "2021-03-04", "6/1/2022",
      "12:30",   "a@b.com",    "192.168.0.1",  "#ff00aa",    "junk!!",
      "",        "9780306406157", "ab-12",     "x:y\tz",     "TOKYO"};
  return v;
}

// --------------------------------------------------- TryMakeEvalFromId --

TEST(EvalIdResolverTest, RebuildsEveryBuiltFunctionBitForBit) {
  table::Corpus corpus =
      datagen::GenerateCorpus(datagen::TablibProfile(200, 3));
  typedet::EvalFunctionSetOptions opt;
  opt.embedding_centroids_per_model = 20;
  opt.num_random_hash = 3;
  typedet::EvalFunctionSet evals =
      typedet::EvalFunctionSet::Build(corpus, opt);
  ASSERT_GT(evals.size(), 0u);
  for (typedet::Family family :
       {typedet::Family::kCta, typedet::Family::kEmbedding,
        typedet::Family::kPattern, typedet::Family::kFunction,
        typedet::Family::kHash}) {
    EXPECT_FALSE(evals.FamilyFunctions(family).empty())
        << typedet::FamilyName(family);
  }
  for (const auto& f : evals.functions()) {
    auto made = typedet::TryMakeEvalFromId(f->id());
    ASSERT_TRUE(made.ok()) << f->id() << ": " << made.status().ToString();
    EXPECT_EQ((*made)->id(), f->id());
    EXPECT_EQ((*made)->family(), f->family());
    for (const std::string& v : ProbeValues()) {
      EXPECT_EQ((*made)->Distance(v), f->Distance(v)) << f->id() << " " << v;
    }
  }
}

TEST(EvalIdResolverTest, UntrustedIdsFailWithStructuredErrors) {
  const std::string oov = "\x01not-a-gazetteer-word\x02";
  embed::Vector probe;
  ASSERT_FALSE(embed::SharedGloveSim()->Embed(oov, &probe));
  struct Case {
    std::string id;
    StatusCode code;
  } cases[] = {
      {"", StatusCode::kNotFound},
      {"nope:x", StatusCode::kNotFound},
      {"CTA:sherlock-sim:city", StatusCode::kNotFound},
      {"cta:sherlock-sim", StatusCode::kInvalidArgument},
      {"cta:no-zoo:city", StatusCode::kNotFound},
      {"cta:sherlock-sim:no-such-type", StatusCode::kNotFound},
      {"emb:glove-sim", StatusCode::kInvalidArgument},
      {"emb:no-model:seattle", StatusCode::kNotFound},
      {"emb:glove-sim:" + oov, StatusCode::kInvalidArgument},
      {"pat:\\", StatusCode::kInvalidArgument},
      {"pat:\\d{", StatusCode::kInvalidArgument},
      {"pat:[a-c]+", StatusCode::kInvalidArgument},
      {"pat:\\d{99999999999}", StatusCode::kInvalidArgument},
      {"pat:\\d{1,99999999999}", StatusCode::kInvalidArgument},
      {"pat:\\d{1}", StatusCode::kInvalidArgument},  // alias of \d
      {"pat:\\a", StatusCode::kInvalidArgument},     // alias of a
      {"fun:no_such_validator", StatusCode::kNotFound},
      {"hash:", StatusCode::kInvalidArgument},
      {"hash:-1", StatusCode::kInvalidArgument},
      {"hash:+1", StatusCode::kInvalidArgument},
      {"hash:01", StatusCode::kInvalidArgument},
      {"hash: 1", StatusCode::kInvalidArgument},
      {"hash:1x", StatusCode::kInvalidArgument},
      {"hash:18446744073709551616", StatusCode::kInvalidArgument},
      {"hash:99999999999999999999", StatusCode::kInvalidArgument},
  };
  for (const Case& c : cases) {
    auto made = typedet::TryMakeEvalFromId(c.id);
    ASSERT_FALSE(made.ok()) << c.id;
    EXPECT_EQ(made.status().code(), c.code) << made.status().ToString();
    EXPECT_FALSE(made.status().message().empty());
  }
  for (std::string_view ok :
       {"hash:0", "hash:18446744073709551615", "pat:", "fun:validate_date",
        "emb:sbert-sim:a:b"}) {
    auto made = typedet::TryMakeEvalFromId(ok);
    ASSERT_TRUE(made.ok()) << ok << ": " << made.status().ToString();
    EXPECT_EQ((*made)->id(), ok);
  }
}

// Every pattern the miner can emit must survive ToString -> Parse, since a
// `pat:` id is exactly that string.
TEST(EvalIdResolverTest, MinedPatternsRoundTripThroughTheirText) {
  size_t checked = 0;
  for (const std::string corpus_name : {"relational", "spreadsheet",
                                        "tablib"}) {
    table::Corpus corpus =
        datagen::GenerateCorpus(ProfileFor(corpus_name, 400, 7));
    pattern::MinerOptions miner;
    miner.max_patterns = 100000;
    miner.drop_trivial = false;
    miner.min_column_support = 1;
    for (const auto& mined : pattern::MinePatterns(corpus, miner)) {
      const std::string text = mined.pattern.ToString();
      auto parsed = pattern::Pattern::Parse(text);
      ASSERT_TRUE(parsed.has_value()) << text;
      EXPECT_EQ(*parsed, mined.pattern) << text;
      ++checked;
    }
    // Generalizations of raw values reach literal characters the miner's
    // dominance filter would drop.
    for (const auto& column : corpus) {
      for (const auto& v : column.values) {
        for (auto level : {pattern::GeneralizationLevel::kExactDigits,
                           pattern::GeneralizationLevel::kGeneral}) {
          pattern::Pattern p = pattern::Generalize(v, level);
          auto parsed = pattern::Pattern::Parse(p.ToString());
          ASSERT_TRUE(parsed.has_value()) << p.ToString();
          EXPECT_EQ(*parsed, p) << v;
        }
      }
    }
  }
  EXPECT_GT(checked, 50u);
}

// Centroid values are free text: ':' inside the centroid, and the rule
// file's \t, \n and \\ escapes, must come back as the same function.
TEST(EvalIdResolverTest, CentroidIdsWithSeparatorsAndEscapesRoundTrip) {
  const embed::EmbeddingModel* sbert = embed::SharedSbertSim().get();
  std::vector<std::unique_ptr<typedet::DomainEvalFunction>> owned;
  std::vector<Sdc> rules;
  for (const std::string centroid :
       {"a:b", "::", "tab\there", "back\\slash", "new\nline", "\\t",
        "mix:\t\\\n:end"}) {
    owned.push_back(typedet::MakeEmbeddingEval(sbert, centroid));
    Sdc r;
    r.eval = owned.back().get();
    r.d_in = 0.5;
    r.d_out = 1.5;
    r.m = 0.9;
    r.confidence = 0.9;
    rules.push_back(r);
  }
  const std::string text = SerializeRules(rules);
  EXPECT_NE(text.find("tab\\there"), std::string::npos);
  EXPECT_NE(text.find("back\\\\slash"), std::string::npos);
  auto loaded = TryDeserializeRuleSet(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->unresolved, 0u);
  ASSERT_EQ(loaded->rules.size(), rules.size());
  ASSERT_EQ(loaded->evals->size(), rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    const typedet::DomainEvalFunction* got = loaded->rules[i].eval;
    EXPECT_EQ(got->id(), rules[i].eval->id());
    EXPECT_EQ(got, &loaded->evals->at(i));
    EXPECT_EQ(loaded->rules[i].eval_index, i);
    for (const std::string& v : ProbeValues()) {
      EXPECT_EQ(got->Distance(v), rules[i].eval->Distance(v));
    }
  }
}

TEST(RuleSetLoaderTest, OneFunctionPerDistinctIdInFirstAppearanceOrder) {
  const std::string line_tail =
      "\t0\t0.5\t0.9\t0.9\t0.001\t1\t2\t3\t4\t1\t0.01\n";
  const std::string text =
      "# autotest-sdc v1\n"
      "rule\tfun:validate_email" + line_tail +
      "rule\thash:7" + line_tail +
      "rule\tfun:no_such_validator" + line_tail +
      "rule\tfun:validate_email" + line_tail +
      "rule\tpat:\\\\d{3}" + line_tail;  // escaped as in a rule file
  auto loaded = TryDeserializeRuleSet(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->unresolved, 1u);
  ASSERT_EQ(loaded->rules.size(), 4u);
  ASSERT_EQ(loaded->evals->size(), 3u);
  EXPECT_EQ(loaded->evals->at(0).id(), "fun:validate_email");
  EXPECT_EQ(loaded->evals->at(1).id(), "hash:7");
  EXPECT_EQ(loaded->evals->at(2).id(), "pat:\\d{3}");
  EXPECT_EQ(loaded->rules[0].eval, loaded->rules[2].eval);
  EXPECT_EQ(loaded->rules[3].eval_index, 2u);

  // File form: same parser, with the loader's not-found diagnostic.
  auto missing = TryLoadRuleSet("/nonexistent/rules.sdc");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------ byte-identity differential --

struct DifferentialCase {
  std::string corpus;
  uint64_t seed;
};

class IdResolvedDetectionsTest
    : public ::testing::TestWithParam<DifferentialCase> {};

TEST_P(IdResolvedDetectionsTest, MatchTrainedSetDetectionsExactly) {
  const DifferentialCase& c = GetParam();
  table::Corpus corpus =
      datagen::GenerateCorpus(ProfileFor(c.corpus, 500, c.seed));
  typedet::EvalFunctionSetOptions opt;
  opt.embedding_centroids_per_model = 25;
  opt.seed = c.seed;
  typedet::EvalFunctionSet evals =
      typedet::EvalFunctionSet::Build(corpus, opt);
  datagen::LabeledBenchmark bench =
      datagen::WithSyntheticErrors(
          datagen::GenerateBenchmark(datagen::RtBenchProfile(150, c.seed)),
          0.2, c.seed);

  std::string first_text;
  for (size_t threads : {1u, 4u}) {
    TrainOptions topt;
    topt.synthetic_count = 150;
    topt.num_threads = threads;
    topt.seed = c.seed;
    TrainedModel model = TrainAutoTest(corpus, evals, topt);
    ASSERT_FALSE(model.constraints.empty());
    const std::string text = SerializeRules(model.constraints);
    if (first_text.empty()) first_text = text;
    EXPECT_EQ(text, first_text) << "threads=" << threads;

    size_t unresolved = 1;
    auto by_set = TryDeserializeRules(text, evals, &unresolved);
    ASSERT_TRUE(by_set.ok()) << by_set.status().ToString();
    EXPECT_EQ(unresolved, 0u);
    auto by_id = TryDeserializeRuleSet(text);
    ASSERT_TRUE(by_id.ok()) << by_id.status().ToString();
    EXPECT_EQ(by_id->unresolved, 0u);
    ASSERT_EQ(by_id->rules.size(), by_set->size());

    SdcPredictor reference(std::move(*by_set));
    SdcPredictor resolved(std::move(by_id->rules));
    ASSERT_EQ(resolved.num_rules(), reference.num_rules());
    size_t detections = 0;
    for (const auto& labeled : bench.columns) {
      const auto want = reference.Predict(labeled.column);
      const auto got = resolved.Predict(labeled.column);
      ASSERT_EQ(got.size(), want.size()) << labeled.column.name;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].row, want[i].row);
        EXPECT_EQ(got[i].value, want[i].value);
        EXPECT_EQ(got[i].confidence, want[i].confidence);
        EXPECT_EQ(got[i].rule_index, want[i].rule_index);
        EXPECT_EQ(got[i].explanation, want[i].explanation);
      }
      detections += want.size();
    }
    EXPECT_GT(detections, 0u) << "differential saw no detections";
  }
}

std::vector<DifferentialCase> AllCases() {
  std::vector<DifferentialCase> out;
  for (const char* corpus : {"relational", "spreadsheet", "tablib"}) {
    for (uint64_t seed : {11u, 22u, 33u}) out.push_back({corpus, seed});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    CorporaAndSeeds, IdResolvedDetectionsTest,
    ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<DifferentialCase>& info) {
      return info.param.corpus + "_" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace autotest::core
