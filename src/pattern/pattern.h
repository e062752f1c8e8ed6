#ifndef AUTOTEST_PATTERN_PATTERN_H_
#define AUTOTEST_PATTERN_PATTERN_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace autotest::pattern {

/// Character classes of the restricted pattern language used by
/// pattern-based semantic-type detection (paper Section 3, category 3).
enum class AtomClass {
  kDigit,    // \d
  kAlpha,    // [a-zA-Z]
  kLower,    // [a-z]
  kUpper,    // [A-Z]
  kLiteral,  // a single literal character
};

/// One pattern atom: a character class with a length quantifier.
/// max_len == kUnbounded encodes '+'-style repetition.
struct Atom {
  static constexpr int kUnbounded = -1;

  AtomClass cls = AtomClass::kLiteral;
  char literal = '\0';  // only meaningful for kLiteral
  int min_len = 1;
  int max_len = 1;

  bool MatchesChar(char c) const;
  bool operator==(const Atom& other) const = default;
};

/// A pattern is a sequence of atoms matched against the whole value.
/// Textual syntax (used in mined-rule explanations, mirroring the paper's
/// Table 1): `\d`, `[a-zA-Z]`, `[a-z]`, `[A-Z]` followed by `+` or `{n}`
/// or `{n,m}`; any other character is a literal (backslash escapes).
class Pattern {
 public:
  Pattern() = default;
  explicit Pattern(std::vector<Atom> atoms) : atoms_(std::move(atoms)) {}

  /// Parses the textual syntax; nullopt on malformed input, including a
  /// repeat count above 2^20.
  static std::optional<Pattern> Parse(std::string_view text);

  /// Renders the canonical textual form.
  std::string ToString() const;

  /// True if the full value matches the pattern (anchored both ends).
  bool Matches(std::string_view value) const;

  const std::vector<Atom>& atoms() const { return atoms_; }
  bool empty() const { return atoms_.empty(); }

  bool operator==(const Pattern& other) const = default;

 private:
  std::vector<Atom> atoms_;
};

/// How aggressively Generalize abstracts a value.
enum class GeneralizationLevel {
  kExactDigits,  // digit runs keep their exact length: "fy17" -> [a-z]{2}\d{2}
  kGeneral,      // digit runs become \d+: "fy17" -> [a-z]+\d+
};

/// Generalizes a concrete value into a pattern: runs of digits and letters
/// become class atoms; every other character becomes a literal atom.
Pattern Generalize(std::string_view value, GeneralizationLevel level);

}  // namespace autotest::pattern

#endif  // AUTOTEST_PATTERN_PATTERN_H_
