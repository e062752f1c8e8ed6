#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "pattern/miner.h"
#include "pattern/pattern.h"
#include "table/table.h"
#include "util/rng.h"

namespace autotest::pattern {
namespace {

// The backtracking search Pattern::Matches used before it became a
// position-set matcher; kept as the reference the matcher must agree with.
bool ReferenceMatchFrom(const std::vector<Atom>& atoms, size_t ai,
                        std::string_view value, size_t pos) {
  if (ai == atoms.size()) return pos == value.size();
  const Atom& a = atoms[ai];
  size_t taken = 0;
  size_t p = pos;
  while (taken < static_cast<size_t>(a.min_len)) {
    if (p >= value.size() || !a.MatchesChar(value[p])) return false;
    ++p;
    ++taken;
  }
  std::vector<size_t> stops = {p};
  while ((a.max_len == Atom::kUnbounded ||
          taken < static_cast<size_t>(a.max_len)) &&
         p < value.size() && a.MatchesChar(value[p])) {
    ++p;
    ++taken;
    stops.push_back(p);
  }
  for (size_t k = stops.size(); k > 0; --k) {
    if (ReferenceMatchFrom(atoms, ai + 1, value, stops[k - 1])) return true;
  }
  return false;
}

TEST(PatternMatchTest, AgreesWithBacktrackingReference) {
  // Seeded random patterns over a small alphabet (so atoms overlap and
  // runs are ambiguous), against random values and against values sampled
  // from the pattern itself.
  const std::string alphabet = "ab1-9Z";
  util::Rng rng(2024);
  auto pick = [&](int64_t lo, int64_t hi) { return rng.UniformInt(lo, hi); };
  size_t matched = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<Atom> atoms(static_cast<size_t>(pick(0, 6)));
    for (Atom& a : atoms) {
      a.cls = static_cast<AtomClass>(pick(0, 4));
      a.literal = alphabet[static_cast<size_t>(pick(0, 5))];
      a.min_len = static_cast<int>(pick(0, 3));
      a.max_len = pick(0, 3) == 0 ? Atom::kUnbounded
                                  : a.min_len + static_cast<int>(pick(0, 3));
    }
    const Pattern pattern(atoms);
    std::string value;
    if (trial % 2 == 0) {
      for (int64_t k = pick(0, 12); k > 0; --k) {
        value.push_back(alphabet[static_cast<size_t>(pick(0, 5))]);
      }
    } else {
      // Sample a value the pattern generates, then maybe corrupt a byte.
      static const std::string kMembers[] = {"19", "aZ", "ab", "Z"};
      for (const Atom& a : atoms) {
        const int64_t extra = a.max_len == Atom::kUnbounded
                                  ? pick(0, 2)
                                  : pick(0, a.max_len - a.min_len);
        for (int64_t k = a.min_len + extra; k > 0; --k) {
          if (a.cls == AtomClass::kLiteral) {
            value.push_back(a.literal);
          } else {
            const std::string& m = kMembers[static_cast<size_t>(a.cls)];
            value.push_back(m[static_cast<size_t>(
                pick(0, static_cast<int64_t>(m.size()) - 1))]);
          }
        }
      }
      if (!value.empty() && pick(0, 3) == 0) {
        value[static_cast<size_t>(
            pick(0, static_cast<int64_t>(value.size()) - 1))] =
            alphabet[static_cast<size_t>(pick(0, 5))];
      }
    }
    const bool want = ReferenceMatchFrom(atoms, 0, value, 0);
    EXPECT_EQ(pattern.Matches(value), want)
        << pattern.ToString() << " vs '" << value << "'";
    matched += want ? 1 : 0;
  }
  EXPECT_GT(matched, 1000u);
}

TEST(PatternMatchTest, AdjacentUnboundedAtomsStayPolynomial) {
  // 40 adjacent \d+ atoms then a literal the value lacks: backtracking
  // tries every split of 60 digits into 40 runs before failing; the
  // position-set matcher does 40 passes over 61 positions.
  std::string text;
  for (int i = 0; i < 40; ++i) text += "\\d+";
  text += "x";
  auto pattern = Pattern::Parse(text);
  ASSERT_TRUE(pattern.has_value());
  EXPECT_FALSE(pattern->Matches(std::string(60, '7')));
  EXPECT_TRUE(pattern->Matches(std::string(60, '7') + "x"));
  EXPECT_FALSE(pattern->Matches(std::string(39, '7') + "x"));
  EXPECT_TRUE(pattern->Matches(std::string(300, '7') + "x"));  // heap sets
}

TEST(PatternParseTest, BasicClasses) {
  auto p = Pattern::Parse("\\d+");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Matches("12345"));
  EXPECT_FALSE(p->Matches("123a"));
  EXPECT_FALSE(p->Matches(""));
}

TEST(PatternParseTest, PaperPatterns) {
  // r5 from the paper's Table 1: "[a-zA-Z]+\d+" (fiscal years like fy17).
  auto r5 = Pattern::Parse("[a-zA-Z]+\\d+");
  ASSERT_TRUE(r5.has_value());
  EXPECT_TRUE(r5->Matches("fy17"));
  EXPECT_TRUE(r5->Matches("tt0054215"));
  EXPECT_FALSE(r5->Matches("fy definition"));
  EXPECT_FALSE(r5->Matches("17fy"));

  // r6: "\d+ [a-zA-Z]+" (units like "12 oz").
  auto r6 = Pattern::Parse("\\d+ [a-zA-Z]+");
  ASSERT_TRUE(r6.has_value());
  EXPECT_TRUE(r6->Matches("12 oz"));
  EXPECT_TRUE(r6->Matches("107 patients"));
  EXPECT_FALSE(r6->Matches("0.05%"));
}

TEST(PatternParseTest, DatePattern) {
  auto p = Pattern::Parse("\\d{1,2}/\\d{1,2}/\\d{4}");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Matches("12/3/2020"));
  EXPECT_TRUE(p->Matches("1/13/1999"));
  EXPECT_FALSE(p->Matches("12/3/20"));
  EXPECT_FALSE(p->Matches("new facility"));
}

TEST(PatternParseTest, FixedLength) {
  auto p = Pattern::Parse("\\d{3}");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Matches("123"));
  EXPECT_FALSE(p->Matches("12"));
  EXPECT_FALSE(p->Matches("1234"));
}

TEST(PatternParseTest, CaseClasses) {
  auto lower = Pattern::Parse("[a-z]+");
  auto upper = Pattern::Parse("[A-Z]+");
  ASSERT_TRUE(lower.has_value());
  ASSERT_TRUE(upper.has_value());
  EXPECT_TRUE(lower->Matches("abc"));
  EXPECT_FALSE(lower->Matches("Abc"));
  EXPECT_TRUE(upper->Matches("ABC"));
  EXPECT_FALSE(upper->Matches("AbC"));
}

TEST(PatternParseTest, EscapedLiterals) {
  auto p = Pattern::Parse("\\d+\\+\\d+");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Matches("1+2"));
  EXPECT_FALSE(p->Matches("1-2"));
}

TEST(PatternParseTest, MalformedInputs) {
  EXPECT_FALSE(Pattern::Parse("\\").has_value());
  EXPECT_FALSE(Pattern::Parse("\\d{").has_value());
  EXPECT_FALSE(Pattern::Parse("\\d{a}").has_value());
  EXPECT_FALSE(Pattern::Parse("\\d{3,1}").has_value());
  EXPECT_FALSE(Pattern::Parse("[a-c]+").has_value());
  EXPECT_FALSE(Pattern::Parse("+").has_value());
}

TEST(PatternMatchTest, BacktrackingAcrossAdjacentClasses) {
  // \d+\d{2} requires the + to give back characters.
  auto p = Pattern::Parse("\\d+\\d{2}");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->Matches("123"));
  EXPECT_FALSE(p->Matches("12"));
}

TEST(PatternMatchTest, EmptyPatternMatchesEmptyOnly) {
  Pattern p;
  EXPECT_TRUE(p.Matches(""));
  EXPECT_FALSE(p.Matches("a"));
}

TEST(PatternRoundTripTest, ParseToStringStable) {
  for (const char* text :
       {"\\d+", "[a-zA-Z]+\\d+", "\\d{1,2}/\\d{1,2}/\\d{4}",
        "[a-z]{2}\\d{2}", "\\d+ [a-zA-Z]+", "#[a-z]+"}) {
    auto p = Pattern::Parse(text);
    ASSERT_TRUE(p.has_value()) << text;
    EXPECT_EQ(p->ToString(), text);
    auto again = Pattern::Parse(p->ToString());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *p);
  }
}

TEST(GeneralizeTest, ExactDigitsLevel) {
  Pattern p = Generalize("fy17", GeneralizationLevel::kExactDigits);
  EXPECT_EQ(p.ToString(), "[a-zA-Z]+\\d{2}");
  EXPECT_TRUE(p.Matches("fy18"));
  EXPECT_FALSE(p.Matches("fy2017"));
}

TEST(GeneralizeTest, GeneralLevel) {
  Pattern p = Generalize("fy17", GeneralizationLevel::kGeneral);
  EXPECT_EQ(p.ToString(), "[a-zA-Z]+\\d+");
  EXPECT_TRUE(p.Matches("fy2017"));
}

TEST(GeneralizeTest, MixedSeparators) {
  Pattern p = Generalize("12/3/2020", GeneralizationLevel::kExactDigits);
  EXPECT_EQ(p.ToString(), "\\d{2}/\\d/\\d{4}");
  EXPECT_TRUE(p.Matches("11/4/2021"));
  EXPECT_FALSE(p.Matches("1/13/2021"));
}

TEST(GeneralizeTest, SelfMatchProperty) {
  // Every value must match its own generalization at both levels.
  const char* values[] = {"fy17",       "12/3/2020", "https://a.b/c",
                          "b50005237",  "12 oz",     "RP11-6L6.2",
                          "hello world", "#a3f2c1",  "0.05%"};
  for (const char* v : values) {
    EXPECT_TRUE(
        Generalize(v, GeneralizationLevel::kExactDigits).Matches(v))
        << v;
    EXPECT_TRUE(Generalize(v, GeneralizationLevel::kGeneral).Matches(v))
        << v;
  }
}

TEST(MinerTest, FindsDominantPatterns) {
  table::Corpus corpus;
  // 5 columns of fiscal years, 4 of dates.
  for (int c = 0; c < 5; ++c) {
    table::Column col;
    col.name = "fy";
    for (int i = 10; i < 25; ++i) col.values.push_back("fy" + std::to_string(i));
    corpus.push_back(col);
  }
  for (int c = 0; c < 4; ++c) {
    table::Column col;
    col.name = "date";
    for (int i = 10; i < 22; ++i) {
      col.values.push_back("11/" + std::to_string(i) + "/2020");
    }
    corpus.push_back(col);
  }
  MinerOptions opt;
  opt.min_column_support = 3;
  auto mined = MinePatterns(corpus, opt);
  ASSERT_FALSE(mined.empty());
  bool has_fy = false;
  bool has_date = false;
  for (const auto& m : mined) {
    std::string s = m.pattern.ToString();
    if (s == "[a-zA-Z]+\\d+" || s == "[a-zA-Z]+\\d{2}") has_fy = true;
    if (s == "\\d{2}/\\d{2}/\\d{4}" || s == "\\d+/\\d+/\\d+") has_date = true;
  }
  EXPECT_TRUE(has_fy);
  EXPECT_TRUE(has_date);
}

TEST(MinerTest, RespectsSupportThreshold) {
  table::Corpus corpus;
  table::Column col;
  col.name = "only_one";
  for (int i = 0; i < 10; ++i) col.values.push_back("zz" + std::to_string(i));
  corpus.push_back(col);
  MinerOptions opt;
  opt.min_column_support = 3;
  EXPECT_TRUE(MinePatterns(corpus, opt).empty());
}

TEST(MinerTest, DropsTrivialPatterns) {
  table::Corpus corpus;
  for (int c = 0; c < 6; ++c) {
    table::Column col;
    col.name = "words";
    for (const char* w : {"apple", "pear", "plum", "fig", "kiwi", "melon"}) {
      col.values.push_back(w);
    }
    corpus.push_back(col);
  }
  auto mined = MinePatterns(corpus);
  for (const auto& m : mined) {
    EXPECT_NE(m.pattern.ToString(), "[a-zA-Z]+");
  }
}

TEST(MinerTest, DominantPatternPerColumn) {
  table::Column col;
  col.values = {"a1", "b2", "c3", "d4", "e5", "hello"};
  Pattern p = DominantPattern(col, GeneralizationLevel::kGeneral, 0.8);
  EXPECT_EQ(p.ToString(), "[a-zA-Z]+\\d+");
  Pattern none = DominantPattern(col, GeneralizationLevel::kGeneral, 0.95);
  EXPECT_TRUE(none.empty());
}

}  // namespace
}  // namespace autotest::pattern
