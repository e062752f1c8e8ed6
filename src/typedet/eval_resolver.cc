#include "typedet/eval_resolver.h"

#include <cstdint>
#include <optional>
#include <string>

#include "embed/embedding.h"
#include "pattern/pattern.h"
#include "typedet/cta_zoo.h"
#include "typedet/eval_functions.h"
#include "typedet/validators.h"

namespace autotest::typedet {

namespace {

using util::InvalidArgumentError;
using util::NotFoundError;
using util::Result;

using EvalPtr = std::unique_ptr<DomainEvalFunction>;

// The built-in model singletons, by the name their ids carry. Matching the
// name before calling the getter means an id only ever packs (CTA, from
// the baked coefficients) or builds (embedding) a model it actually
// references.
struct NamedZoo {
  std::string_view name;
  std::shared_ptr<CtaModelZoo> (*shared)();
};
constexpr NamedZoo kZoos[] = {{"sherlock-sim", &SharedSherlockSim},
                              {"doduo-sim", &SharedDoduoSim}};

struct NamedModel {
  std::string_view name;
  std::shared_ptr<embed::EmbeddingModel> (*shared)();
};
constexpr NamedModel kModels[] = {{"glove-sim", &embed::SharedGloveSim},
                                  {"sbert-sim", &embed::SharedSbertSim}};

// Splits "<name>:<rest>" at the first ':'. Model names hold no ':', so the
// rest (a type name or a centroid value) may contain any byte.
bool SplitName(std::string_view body, std::string_view* name,
               std::string_view* rest) {
  const size_t colon = body.find(':');
  if (colon == std::string_view::npos) return false;
  *name = body.substr(0, colon);
  *rest = body.substr(colon + 1);
  return true;
}

// Canonical decimal u64: digits only, no sign, no leading zero, and no
// overflow — exactly the strings std::to_string(uint64_t) produces.
bool ParseCanonicalU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 20 || (s.size() > 1 && s[0] == '0')) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

Result<EvalPtr> MakeCta(std::string_view body) {
  std::string_view zoo_name, type;
  if (!SplitName(body, &zoo_name, &type)) {
    return InvalidArgumentError("want cta:<zoo>:<type>");
  }
  for (const NamedZoo& z : kZoos) {
    if (z.name != zoo_name) continue;
    const CtaModelZoo* zoo = z.shared().get();
    const auto& types = zoo->type_names();
    for (size_t t = 0; t < types.size(); ++t) {
      if (types[t] == type) return MakeCtaEval(zoo, t);
    }
    return NotFoundError("zoo " + std::string(zoo_name) + " has no type '" +
                         std::string(type) + "'");
  }
  return NotFoundError("unknown CTA zoo '" + std::string(zoo_name) + "'");
}

Result<EvalPtr> MakeEmbedding(std::string_view body) {
  std::string_view model_name, centroid;
  if (!SplitName(body, &model_name, &centroid)) {
    return InvalidArgumentError("want emb:<model>:<centroid>");
  }
  for (const NamedModel& m : kModels) {
    if (m.name != model_name) continue;
    const embed::EmbeddingModel* model = m.shared().get();
    const std::string value(centroid);
    embed::Vector probe;
    if (!model->Embed(value, &probe)) {
      return InvalidArgumentError("centroid is not embeddable by " +
                                  std::string(model_name));
    }
    return MakeEmbeddingEval(model, value);
  }
  return NotFoundError("unknown embedding model '" + std::string(model_name) +
                       "'");
}

Result<EvalPtr> MakePattern(std::string_view body) {
  std::optional<pattern::Pattern> parsed = pattern::Pattern::Parse(body);
  if (!parsed.has_value()) {
    return InvalidArgumentError("malformed pattern");
  }
  return MakePatternEval(*parsed);
}

Result<EvalPtr> MakeFunction(std::string_view body) {
  for (const NamedValidator& v : AllValidators()) {
    if (v.name == body) return MakeFunctionEval(v);
  }
  return NotFoundError("unknown validator '" + std::string(body) + "'");
}

Result<EvalPtr> MakeHash(std::string_view body) {
  uint64_t seed = 0;
  if (!ParseCanonicalU64(body, &seed)) {
    return InvalidArgumentError("seed is not a canonical decimal u64");
  }
  return MakeRandomHashEval(seed);
}

Result<EvalPtr> MakeFromId(std::string_view id) {
  struct IdFamily {
    std::string_view prefix;
    Result<EvalPtr> (*make)(std::string_view body);
  };
  static constexpr IdFamily kFamilies[] = {{"cta:", &MakeCta},
                                           {"emb:", &MakeEmbedding},
                                           {"pat:", &MakePattern},
                                           {"fun:", &MakeFunction},
                                           {"hash:", &MakeHash}};
  for (const IdFamily& f : kFamilies) {
    if (id.starts_with(f.prefix)) return f.make(id.substr(f.prefix.size()));
  }
  return NotFoundError("unknown evaluation-function family");
}

}  // namespace

Result<std::unique_ptr<DomainEvalFunction>> TryMakeEvalFromId(
    std::string_view id) {
  auto made = MakeFromId(id);
  if (!made.ok()) {
    return util::Status(made.status())
        .WithContext("resolving evaluation function '" + std::string(id) +
                     "'");
  }
  // Aliases (a pattern spelled with a redundant escape or a `{1}`
  // quantifier) parse fine but would yield a function whose id() differs
  // from the one requested; only the canonical spelling resolves.
  if ((*made)->id() != id) {
    return InvalidArgumentError("evaluation function id '" +
                                std::string(id) +
                                "' is not in canonical form (canonical: '" +
                                (*made)->id() + "')");
  }
  return made;
}

}  // namespace autotest::typedet
