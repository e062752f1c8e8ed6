#include "pattern/pattern.h"

#include <algorithm>
#include <cctype>
#include <cstdint>

#include "util/check.h"

namespace autotest::pattern {

namespace {

bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }
bool IsAlpha(char c) { return std::isalpha(static_cast<unsigned char>(c)); }
bool IsLower(char c) { return std::islower(static_cast<unsigned char>(c)); }
bool IsUpper(char c) { return std::isupper(static_cast<unsigned char>(c)); }

// Largest repeat count a quantifier may spell. Patterns arrive from
// untrusted rule files (`pat:` ids), so the digit loop must stop before
// the int accumulator can overflow.
constexpr int kMaxRepeat = 1 << 20;

// Parses a quantifier at position i (after a class token); defaults to {1}.
bool ParseQuantifier(std::string_view text, size_t* i, int* min_len,
                     int* max_len) {
  *min_len = 1;
  *max_len = 1;
  if (*i >= text.size()) return true;
  if (text[*i] == '+') {
    *min_len = 1;
    *max_len = Atom::kUnbounded;
    ++*i;
    return true;
  }
  if (text[*i] != '{') return true;
  size_t j = *i + 1;
  int lo = 0;
  bool have_lo = false;
  while (j < text.size() && IsDigit(text[j])) {
    lo = lo * 10 + (text[j] - '0');
    if (lo > kMaxRepeat) return false;
    have_lo = true;
    ++j;
  }
  if (!have_lo) return false;
  int hi = lo;
  if (j < text.size() && text[j] == ',') {
    ++j;
    hi = 0;
    bool have_hi = false;
    while (j < text.size() && IsDigit(text[j])) {
      hi = hi * 10 + (text[j] - '0');
      if (hi > kMaxRepeat) return false;
      have_hi = true;
      ++j;
    }
    if (!have_hi) return false;
  }
  if (j >= text.size() || text[j] != '}') return false;
  if (hi < lo) return false;
  *min_len = lo;
  *max_len = hi;
  *i = j + 1;
  return true;
}

std::string QuantifierString(const Atom& a) {
  if (a.min_len == 1 && a.max_len == 1) return "";
  if (a.min_len == 1 && a.max_len == Atom::kUnbounded) return "+";
  if (a.min_len == a.max_len) return "{" + std::to_string(a.min_len) + "}";
  return "{" + std::to_string(a.min_len) + "," + std::to_string(a.max_len) +
         "}";
}

bool IsPatternSpecial(char c) {
  return c == '\\' || c == '[' || c == ']' || c == '{' || c == '}' ||
         c == '+';
}

// Position-set matcher: after each atom, reach[p] says some split of the
// value's prefix [0, p) matches the atoms so far; each atom carries every
// reachable position forward by each run length it allows. The work is
// polynomial in (atoms, value length) for any pattern, where a
// backtracking search is exponential on runs of adjacent unbounded atoms
// — and patterns arrive from rule files (`pat:` ids), so they are
// untrusted. The answer is the backtracking one: some split matches.
bool MatchAll(const std::vector<Atom>& atoms, std::string_view value) {
  const size_t n = value.size();
  // Short values (nearly all cells) keep both position sets on the stack.
  constexpr size_t kInline = 128;
  uint8_t inline_sets[2 * kInline];
  std::vector<uint8_t> heap_sets;
  uint8_t* reach = inline_sets;
  uint8_t* next = inline_sets + kInline;
  if (n + 1 > kInline) {
    heap_sets.resize(2 * (n + 1));
    reach = heap_sets.data();
    next = reach + n + 1;
  }
  std::fill(reach, reach + n + 1, uint8_t{0});
  reach[0] = 1;
  // Reachable positions lie in [lo, hi] and never move left, so each pass
  // scans (and clears) only from lo on; bits below lo are never read.
  size_t lo = 0, hi = 0;
  for (const Atom& a : atoms) {
    const size_t min_len = static_cast<size_t>(a.min_len);
    const size_t max_len = a.max_len == Atom::kUnbounded
                               ? n
                               : static_cast<size_t>(a.max_len);
    std::fill(next + lo, next + n + 1, uint8_t{0});
    size_t next_lo = n + 1, next_hi = 0;
    for (size_t p = lo; p <= hi; ++p) {
      if (reach[p] == 0) continue;
      size_t q = p;
      while (q - p < min_len && q < n && a.MatchesChar(value[q])) ++q;
      if (q - p < min_len) continue;
      next_lo = std::min(next_lo, q);
      next[q] = 1;
      while (q - p < max_len && q < n && a.MatchesChar(value[q])) {
        next[++q] = 1;
      }
      next_hi = std::max(next_hi, q);
    }
    if (next_lo > n) return false;
    std::swap(reach, next);
    lo = next_lo;
    hi = next_hi;
  }
  return hi == n && reach[n] != 0;
}

}  // namespace

bool Atom::MatchesChar(char c) const {
  switch (cls) {
    case AtomClass::kDigit:
      return IsDigit(c);
    case AtomClass::kAlpha:
      return IsAlpha(c);
    case AtomClass::kLower:
      return IsLower(c);
    case AtomClass::kUpper:
      return IsUpper(c);
    case AtomClass::kLiteral:
      return c == literal;
  }
  return false;
}

std::optional<Pattern> Pattern::Parse(std::string_view text) {
  std::vector<Atom> atoms;
  size_t i = 0;
  while (i < text.size()) {
    Atom a;
    if (text[i] == '\\') {
      if (i + 1 >= text.size()) return std::nullopt;
      char c = text[i + 1];
      i += 2;
      if (c == 'd') {
        a.cls = AtomClass::kDigit;
        if (!ParseQuantifier(text, &i, &a.min_len, &a.max_len)) {
          return std::nullopt;
        }
      } else {
        a.cls = AtomClass::kLiteral;
        a.literal = c;
      }
    } else if (text[i] == '[') {
      AtomClass cls;
      size_t len;
      if (text.substr(i).starts_with("[a-zA-Z]")) {
        cls = AtomClass::kAlpha;
        len = 8;
      } else if (text.substr(i).starts_with("[a-z]")) {
        cls = AtomClass::kLower;
        len = 5;
      } else if (text.substr(i).starts_with("[A-Z]")) {
        cls = AtomClass::kUpper;
        len = 5;
      } else {
        return std::nullopt;
      }
      i += len;
      a.cls = cls;
      if (!ParseQuantifier(text, &i, &a.min_len, &a.max_len)) {
        return std::nullopt;
      }
    } else if (text[i] == '{' || text[i] == '}' || text[i] == '+' ||
               text[i] == ']') {
      return std::nullopt;  // specials must be escaped
    } else {
      a.cls = AtomClass::kLiteral;
      a.literal = text[i];
      ++i;
    }
    atoms.push_back(a);
  }
  return Pattern(std::move(atoms));
}

std::string Pattern::ToString() const {
  std::string out;
  for (const Atom& a : atoms_) {
    switch (a.cls) {
      case AtomClass::kDigit:
        out += "\\d";
        break;
      case AtomClass::kAlpha:
        out += "[a-zA-Z]";
        break;
      case AtomClass::kLower:
        out += "[a-z]";
        break;
      case AtomClass::kUpper:
        out += "[A-Z]";
        break;
      case AtomClass::kLiteral:
        if (IsPatternSpecial(a.literal)) out.push_back('\\');
        out.push_back(a.literal);
        break;
    }
    if (a.cls != AtomClass::kLiteral) out += QuantifierString(a);
  }
  return out;
}

bool Pattern::Matches(std::string_view value) const {
  return MatchAll(atoms_, value);
}

Pattern Generalize(std::string_view value, GeneralizationLevel level) {
  std::vector<Atom> atoms;
  size_t i = 0;
  while (i < value.size()) {
    char c = value[i];
    if (IsDigit(c)) {
      size_t j = i;
      while (j < value.size() && IsDigit(value[j])) ++j;
      Atom a;
      a.cls = AtomClass::kDigit;
      if (level == GeneralizationLevel::kExactDigits) {
        a.min_len = a.max_len = static_cast<int>(j - i);
      } else {
        a.min_len = 1;
        a.max_len = Atom::kUnbounded;
      }
      atoms.push_back(a);
      i = j;
    } else if (IsAlpha(c)) {
      size_t j = i;
      while (j < value.size() && IsAlpha(value[j])) ++j;
      Atom a;
      a.cls = AtomClass::kAlpha;
      a.min_len = 1;
      a.max_len = Atom::kUnbounded;
      atoms.push_back(a);
      i = j;
    } else {
      Atom a;
      a.cls = AtomClass::kLiteral;
      a.literal = c;
      atoms.push_back(a);
      ++i;
    }
  }
  return Pattern(std::move(atoms));
}

}  // namespace autotest::pattern
