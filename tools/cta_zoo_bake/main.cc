// cta_zoo_bake — trains the built-in CTA zoos (sherlock-sim, doduo-sim)
// and writes their coefficients as a C++ source file:
//
//   cta_zoo_bake <out.cc>
//
// The build runs it (src/typedet/CMakeLists.txt) and compiles the output
// into at_typedet, so the zoos ship pre-trained and no process trains
// them at startup. Every weight and bias is a `%a` hex-float literal, so
// the compiled coefficients are bit-identical to the trained ones. The
// file is written to <out.cc>.tmp and renamed into place, so a failed
// run never leaves a truncated source behind.

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "cta_zoo_bake/zoo_training.h"
#include "util/check.h"

namespace {

using autotest::typedet::TrainedCtaZoo;

constexpr const char* kPrologue =
    "// Generated by cta_zoo_bake (tools/cta_zoo_bake/main.cc): the trained\n"
    "// coefficients of the built-in CTA zoos. Do not edit.\n"
    "\n"
    "#include <cstdint>\n"
    "#include <string_view>\n"
    "\n"
    "#include \"typedet/cta_zoo_coefficients.h\"\n"
    "\n"
    "namespace autotest::typedet {\n";

// "sherlock-sim" -> "SherlockSim".
std::string CamelCase(const std::string& name) {
  std::string out;
  bool start = true;
  for (char c : name) {
    if (c == '-') {
      start = true;
      continue;
    }
    const auto u = static_cast<unsigned char>(c);
    out.push_back(static_cast<char>(start ? std::toupper(u) : u));
    start = false;
  }
  return out;
}

void WriteDouble(std::FILE* f, double v) {
  AT_CHECK(std::isfinite(v));
  std::fprintf(f, "%a", v);
}

void WriteZoo(std::FILE* f, const TrainedCtaZoo& zoo) {
  const std::string id = "k" + CamelCase(zoo.name);
  const size_t nt = zoo.type_names.size();
  const size_t dim = autotest::ml::FeatureExtractor(zoo.feature_config).dim();

  std::fprintf(f, "\nnamespace {\n\n");
  std::fprintf(f, "constexpr std::string_view %sTypes[] = {\n", id.c_str());
  for (const std::string& name : zoo.type_names) {
    for (char c : name) {
      AT_CHECK(c >= ' ' && c <= '~' && c != '"' && c != '\\');
    }
    std::fprintf(f, "    \"%s\",\n", name.c_str());
  }
  std::fprintf(f, "};\n\n");

  std::fprintf(f, "// Row-major per type: [t * %zu + j].\n", dim);
  std::fprintf(f, "constexpr double %sWeights[] = {\n", id.c_str());
  for (size_t t = 0; t < nt; ++t) {
    const autotest::ml::LogisticRegression& model = zoo.models[t];
    AT_CHECK(!model.trained() || model.dim() == dim);
    std::fprintf(f, "    // %s\n", zoo.type_names[t].c_str());
    for (size_t j = 0; j < dim; ++j) {
      std::fputs(j % 3 == 0 ? "    " : " ", f);
      WriteDouble(f, model.trained() ? model.weights()[j] : 0.0);
      std::fputs(j % 3 == 2 || j + 1 == dim ? ",\n" : ",", f);
    }
  }
  std::fprintf(f, "};\n\n");

  std::fprintf(f, "constexpr double %sBiases[] = {\n", id.c_str());
  for (size_t t = 0; t < nt; ++t) {
    std::fputs("    ", f);
    WriteDouble(f, zoo.models[t].trained() ? zoo.models[t].bias() : 0.0);
    std::fputs(",\n", f);
  }
  std::fprintf(f, "};\n\n");

  std::fprintf(f, "constexpr uint8_t %sTrained[] = {\n   ", id.c_str());
  for (size_t t = 0; t < nt; ++t) {
    std::fprintf(f, " %d,", zoo.models[t].trained() ? 1 : 0);
  }
  std::fprintf(f, "\n};\n\n}  // namespace\n\n");

  const autotest::ml::FeatureConfig& fc = zoo.feature_config;
  std::fprintf(f,
               "const CtaZooCoefficients %sCoefficients = {\n"
               "    .name = \"%s\",\n"
               "    .type_names = %sTypes,\n"
               "    .feature_config = {.hash_dim = %zu,\n"
               "                       .min_n = %d,\n"
               "                       .max_n = %d,\n"
               "                       .seed = 0x%" PRIx64 "},\n"
               "    .weights = %sWeights,\n"
               "    .biases = %sBiases,\n"
               "    .trained = %sTrained,\n"
               "};\n",
               id.c_str(), zoo.name.c_str(), id.c_str(), fc.hash_dim,
               fc.min_n, fc.max_n, fc.seed, id.c_str(), id.c_str(),
               id.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: cta_zoo_bake <out.cc>\n");
    return 2;
  }
  const std::string out = argv[1];
  const std::string tmp = out + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    std::perror(tmp.c_str());
    return 1;
  }
  std::fputs(kPrologue, f);
  for (const auto& config : {autotest::typedet::SherlockSimConfig(),
                             autotest::typedet::DoduoSimConfig()}) {
    WriteZoo(f, autotest::typedet::TrainCtaZoo(config));
  }
  std::fprintf(f, "\n}  // namespace autotest::typedet\n");
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed ||
      std::rename(tmp.c_str(), out.c_str()) != 0) {
    std::perror(out.c_str());
    std::remove(tmp.c_str());
    return 1;
  }
  return 0;
}
