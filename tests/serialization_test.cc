#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/predictor.h"
#include "core/serialization.h"
#include "core/trainer.h"
#include "datagen/corpus_gen.h"
#include "typedet/eval_functions.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace autotest::core {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new table::Corpus(
        datagen::GenerateCorpus(datagen::TablibProfile(400, 5)));
    typedet::EvalFunctionSetOptions opt;
    opt.embedding_centroids_per_model = 30;
    evals_ = new typedet::EvalFunctionSet(
        typedet::EvalFunctionSet::Build(*corpus_, opt));
    TrainOptions topt;
    topt.synthetic_count = 200;
    model_ = new TrainedModel(TrainAutoTest(*corpus_, *evals_, topt));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete evals_;
    evals_ = nullptr;
    delete corpus_;
    corpus_ = nullptr;
  }
  static table::Corpus* corpus_;
  static typedet::EvalFunctionSet* evals_;
  static TrainedModel* model_;
};

table::Corpus* SerializationTest::corpus_ = nullptr;
typedet::EvalFunctionSet* SerializationTest::evals_ = nullptr;
TrainedModel* SerializationTest::model_ = nullptr;

TEST_F(SerializationTest, RoundTripPreservesRules) {
  ASSERT_FALSE(model_->constraints.empty());
  std::string text = SerializeRules(model_->constraints);
  size_t unresolved = 123;
  auto loaded = TryDeserializeRules(text, *evals_, &unresolved);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(unresolved, 0u);
  ASSERT_EQ(loaded->size(), model_->constraints.size());
  for (size_t i = 0; i < loaded->size(); ++i) {
    const Sdc& a = model_->constraints[i];
    const Sdc& b = (*loaded)[i];
    EXPECT_EQ(a.eval, b.eval);
    EXPECT_DOUBLE_EQ(a.d_in, b.d_in);
    EXPECT_DOUBLE_EQ(a.d_out, b.d_out);
    EXPECT_DOUBLE_EQ(a.m, b.m);
    EXPECT_DOUBLE_EQ(a.confidence, b.confidence);
    EXPECT_DOUBLE_EQ(a.fpr, b.fpr);
    EXPECT_EQ(a.contingency.covered_triggered,
              b.contingency.covered_triggered);
    EXPECT_DOUBLE_EQ(a.cohens_h, b.cohens_h);
  }
}

TEST_F(SerializationTest, FileRoundTrip) {
  std::string path = "/tmp/autotest_rules_test.sdc";
  ASSERT_TRUE(TrySaveRulesToFile(model_->constraints, path).ok());
  auto loaded = TryLoadRulesFromFile(path, *evals_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), model_->constraints.size());
}

TEST_F(SerializationTest, UnknownIdsSkippedAndCounted) {
  std::string text = SerializeRules(model_->constraints);
  text += "rule\tfun:does_not_exist\t0\t0.5\t0.9\t0.9\t0.001\t1\t2\t3\t4\t1"
          "\t0.01\n";
  size_t unresolved = 0;
  auto loaded = TryDeserializeRules(text, *evals_, &unresolved);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(unresolved, 1u);
  EXPECT_EQ(loaded->size(), model_->constraints.size());
}

TEST_F(SerializationTest, MalformedInputsRejected) {
  EXPECT_FALSE(TryDeserializeRules("", *evals_).ok());  // no header
  EXPECT_FALSE(  // wrong field count
      TryDeserializeRules("# autotest-sdc v1\nrule\tx\t1\n", *evals_).ok());
  EXPECT_FALSE(
      TryDeserializeRules("# autotest-sdc v1\nbogus line\n", *evals_).ok());
}

// --- structured diagnostics on the Try* surface ---

namespace {

// A syntactically and semantically valid rule line with an unknown eval id
// (so it parses and validates without needing a resolvable function).
std::string RuleLine(const std::string& d_in = "0.1",
                     const std::string& d_out = "0.9",
                     const std::string& m = "0.8",
                     const std::string& conf = "0.95",
                     const std::string& fpr = "0.01",
                     const std::string& ct = "1") {
  return "rule\tfun:unknown\t" + d_in + "\t" + d_out + "\t" + m + "\t" +
         conf + "\t" + fpr + "\t" + ct + "\t2\t3\t4\t1\t0.01\n";
}

constexpr char kV1[] = "# autotest-sdc v1\n";

}  // namespace

TEST_F(SerializationTest, MissingHeaderDiagnostic) {
  auto r = TryDeserializeRules("", *evals_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("header"), std::string::npos);
}

TEST_F(SerializationTest, WrongVersionHeaderDiagnostic) {
  auto r = TryDeserializeRules("# autotest-sdc v2\n" + RuleLine(), *evals_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("unsupported rule-file version 'v2'"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(SerializationTest, RuleBeforeHeaderRejected) {
  auto r = TryDeserializeRules(RuleLine() + kV1, *evals_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, TruncatedRuleLineDiagnostic) {
  std::string text = SerializeRules(model_->constraints);
  // Cut the last line in half: field count drops below 13.
  text.resize(text.size() - text.size() / 4);
  while (!text.empty() && text.back() != '\t') text.pop_back();
  auto r = TryDeserializeRules(text, *evals_);
  if (!r.ok()) {
    EXPECT_NE(r.status().ToString().find("rule line"), std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(SerializationTest, BadNumberNamesFieldAndLine) {
  auto r =
      TryDeserializeRules(kV1 + RuleLine("zzz"), *evals_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
  EXPECT_NE(r.status().message().find("rule line 2"), std::string::npos);
  EXPECT_NE(r.status().message().find("field 'd_in'"), std::string::npos)
      << r.status().ToString();
}

TEST_F(SerializationTest, TrailingGarbageInNumberRejected) {
  auto r = TryDeserializeRules(kV1 + RuleLine("0.1abc"), *evals_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kDataLoss);
}

TEST_F(SerializationTest, NonFiniteValuesRejected) {
  for (const char* bad : {"nan", "inf", "-inf"}) {
    auto r = TryDeserializeRules(kV1 + RuleLine(bad), *evals_);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("not finite"), std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(SerializationTest, InvertedRadiiRejected) {
  auto r = TryDeserializeRules(kV1 + RuleLine("0.9", "0.1"), *evals_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("d_in exceeds outer radius"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(SerializationTest, OutOfRangeUnitFieldsRejected) {
  // m, conf, fpr each outside [0, 1].
  EXPECT_FALSE(
      TryDeserializeRules(kV1 + RuleLine("0.1", "0.9", "1.5"), *evals_)
          .ok());
  EXPECT_FALSE(TryDeserializeRules(
                   kV1 + RuleLine("0.1", "0.9", "0.8", "-0.2"), *evals_)
                   .ok());
  EXPECT_FALSE(
      TryDeserializeRules(
          kV1 + RuleLine("0.1", "0.9", "0.8", "0.95", "2.0"), *evals_)
          .ok());
}

TEST_F(SerializationTest, NegativeCountsRejected) {
  auto r = TryDeserializeRules(
      kV1 + RuleLine("0.1", "0.9", "0.8", "0.95", "0.01", "-5"), *evals_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("is negative"), std::string::npos);
}

TEST_F(SerializationTest, LoadMissingFileIsNotFound) {
  auto r = TryLoadRulesFromFile("/nonexistent/rules.sdc", *evals_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kNotFound);
}

TEST_F(SerializationTest, LoadErrorCarriesPathContext) {
  const std::string path = "/tmp/autotest_rules_corrupt.sdc";
  {
    std::ofstream out(path);
    out << "# autotest-sdc v1\nrule\tx\t1\n";
  }
  auto r = TryLoadRulesFromFile(path, *evals_);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find(path), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

// --- atomic save (satellite: temp-file + rename) ---

TEST_F(SerializationTest, SaveIsAtomicUnderInjectedFault) {
  const std::string path = "/tmp/autotest_rules_atomic.sdc";
  ASSERT_TRUE(TrySaveRulesToFile(model_->constraints, path).ok());
  std::string before;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    before = ss.str();
  }
  ASSERT_FALSE(before.empty());

  auto& reg = util::FailpointRegistry::Global();
  ASSERT_TRUE(reg.Configure("rules.save=on").ok());
  util::Status st = TrySaveRulesToFile({}, path);
  reg.Reset();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kIoError);

  // The failed save must not have touched the existing file.
  std::string after;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    after = ss.str();
  }
  EXPECT_EQ(before, after);
  std::remove(path.c_str());
}

TEST_F(SerializationTest, SaveToUnwritableDirFailsCleanly) {
  util::Status st =
      TrySaveRulesToFile(model_->constraints, "/nonexistent/dir/rules.sdc");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::StatusCode::kIoError);
}

// Death tests documenting which AT_CHECKs remain programmer-error
// invariants after the Result migration (DESIGN.md §4c): corrupt *input*
// must never abort, but API misuse still does.
using SerializationDeathTest = SerializationTest;

TEST_F(SerializationDeathTest, UnwrappingErrorResultAborts) {
  auto r = TryDeserializeRules("", *evals_);
  ASSERT_FALSE(r.ok());
  EXPECT_DEATH({ (void)r.value(); }, "Result::value\\(\\) on error status");
}

TEST_F(SerializationTest, EmptyRuleSetRoundTrips) {
  auto loaded = TryDeserializeRules(SerializeRules({}), *evals_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST_F(SerializationTest, FindEvalById) {
  ASSERT_GT(evals_->size(), 0u);
  const auto& first = evals_->at(0);
  EXPECT_EQ(FindEvalById(*evals_, first.id()), &first);
  EXPECT_EQ(FindEvalById(*evals_, "nope:nope"), nullptr);
}

TEST_F(SerializationTest, LoadedRulesPredictIdentically) {
  std::string text = SerializeRules(model_->constraints);
  auto loaded = TryDeserializeRules(text, *evals_);
  ASSERT_TRUE(loaded.ok());
  SdcPredictor original(model_->constraints);
  SdcPredictor reloaded(*loaded);
  table::Column col;
  col.name = "dates";
  for (int i = 1; i <= 20; ++i) {
    col.values.push_back("6/" + std::to_string(i) + "/2022");
  }
  col.values.push_back("unknown");
  auto a = original.Predict(col);
  auto b = reloaded.Predict(col);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row, b[i].row);
    EXPECT_DOUBLE_EQ(a[i].confidence, b[i].confidence);
  }
}

}  // namespace
}  // namespace autotest::core
