// perfbench_tool — the benchmark's in-process helper. perfbench/run.py
// drives the shipped `autotest` binary from outside; this tool does the
// parts that need the library itself:
//
//   perfbench_tool gen --workload W --seed N --requests R --out DIR
//                      --check-columns C --synthetic-permille S
//                      [--pool P | --warmup W] [--rows-min a --rows-max b
//                       --cols-min c --cols-max d --machine-permille M]
//       Writes the workload's seeded inputs: labeled RT-Bench tables for
//       `autotest check` (DIR/check/, DIR/labels.tsv) and the tables the
//       load generator sends (DIR/serve/), listed in DIR/manifest.tsv.
//       serve_repeat cycles a pool of P tables; serve_fresh writes one
//       table per request plus W warm-up tables.
//
//   perfbench_tool verify --dir DIR --rules R --check-report F
//                         --requests N --out-ref FILE
//       Builds the serving-side evaluation functions exactly as the CLI
//       does, predicts every input table in process (the reference),
//       writes the reference detections to FILE, compares the CLI check
//       report against them and scores it against the labels with
//       eval::ComputePrCurve. Prints one JSON object.
//
//   perfbench_tool trace --dir DIR --requests K --rules-out R --out FILE
//       The traced run: calls the library functions the CLI composes
//       (train, check, serve) with a span around each call, and writes
//       the spans plus layer counts as JSON.
//
//   perfbench_tool wire
//       Prints sample frames from serve/wire.h for the codec test.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <unistd.h>
#include <unordered_set>
#include <vector>

#include "core/auto_test.h"
#include "core/predictor.h"
#include "core/selection.h"
#include "core/serialization.h"
#include "core/trainer.h"
#include "datagen/bench_gen.h"
#include "datagen/corpus_gen.h"
#include "eval/metrics.h"
#include "serve/server.h"
#include "serve/session.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "table/column.h"
#include "table/column_store.h"
#include "table/csv.h"
#include "typedet/eval_functions.h"
#include "util/parallel/stats.h"
#include "util/parallel/thread_pool.h"
#include "util/rng.h"

namespace {

using namespace autotest;

// The training recipe run.py passes to `autotest train`; the tool must
// rebuild the same corpus and evaluation functions.
constexpr size_t kRecipeColumns = 2000;
constexpr size_t kRecipeCentroids = 120;
constexpr size_t kRecipeSynthetic = 800;
constexpr size_t kRecipeShards = 8;
// Columns per labeled check table (columns of equal length are grouped).
constexpr size_t kCheckTableWidth = 8;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::exit(1);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FormatConf(double conf) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", conf);
  return buf;
}

/// --key value flags after the subcommand.
std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 0; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Die("unexpected argument " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 0) Die("flag without a value");
  return flags;
}

std::string Need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  auto it = flags.find(key);
  if (it == flags.end()) Die("missing --" + key);
  return it->second;
}

uint64_t NeedNumber(const std::map<std::string, std::string>& flags,
                    const std::string& key) {
  const std::string s = Need(flags, key);
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size()) Die("bad --" + key);
  return v;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) Die("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct Manifest {
  std::vector<std::string> check;   // paths relative to the work dir
  std::vector<std::string> serve;   // timed request i sends serve[i % size]
  std::vector<std::string> warmup;  // sent once each before timing
};

Manifest ReadManifest(const std::string& dir) {
  std::ifstream in(dir + "/manifest.tsv");
  if (!in) Die("cannot read " + dir + "/manifest.tsv");
  Manifest m;
  std::string kind, path;
  while (in >> kind >> path) {
    if (kind == "check") m.check.push_back(path);
    if (kind == "serve") m.serve.push_back(path);
    if (kind == "warmup") m.warmup.push_back(path);
  }
  if (m.check.empty() || m.serve.empty()) Die("empty manifest in " + dir);
  return m;
}

table::Table ReadTable(const std::string& path) {
  auto t = table::TryReadCsvFile(path);
  if (!t.ok()) Die(t.status().ToString());
  return std::move(*t);
}

/// One request-sized table of `cols` columns, all `rows` long, labeled.
table::Table ServeTable(size_t rows, size_t cols, double machine_fraction,
                        uint64_t seed) {
  datagen::BenchProfile p;
  p.name = "serve";
  p.num_columns = cols;
  p.min_values = rows;
  p.max_values = rows;
  p.dirty_column_rate = 0.5;
  p.tail_fraction = 0.10;
  p.machine_fraction = machine_fraction;
  p.seed = seed;
  datagen::LabeledBenchmark bench = datagen::GenerateBenchmark(p);
  table::Table t;
  for (size_t c = 0; c < bench.columns.size(); ++c) {
    t.columns.push_back(std::move(bench.columns[c].column));
    t.columns.back().name = "c" + std::to_string(c);
  }
  return t;
}

int CmdGen(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv);
  const std::string workload = Need(flags, "workload");
  const uint64_t seed = NeedNumber(flags, "seed");
  const size_t requests = NeedNumber(flags, "requests");
  const size_t check_columns = NeedNumber(flags, "check-columns");
  const double synthetic_rate = NeedNumber(flags, "synthetic-permille") / 1e3;
  const std::string dir = Need(flags, "out");
  if (workload != "serve_repeat" && workload != "serve_fresh") {
    Die("unknown workload " + workload);
  }

  // The labeled check set: RT-Bench at the workload seed, columns of equal
  // length grouped into tables so every labeled cell is kept.
  datagen::LabeledBenchmark bench = datagen::WithSyntheticErrors(
      datagen::GenerateBenchmark(datagen::RtBenchProfile(check_columns, seed)),
      synthetic_rate, seed + 1);
  std::map<size_t, std::vector<size_t>> by_length;
  for (size_t i = 0; i < bench.columns.size(); ++i) {
    by_length[bench.columns[i].column.size()].push_back(i);
  }
  Manifest m;
  std::string labels;
  size_t total_errors = 0;
  for (const auto& [length, ids] : by_length) {
    for (size_t start = 0; start < ids.size(); start += kCheckTableWidth) {
      table::Table t;
      const std::string path =
          "check/t" + std::to_string(m.check.size()) + ".csv";
      for (size_t k = start; k < std::min(ids.size(), start + kCheckTableWidth);
           ++k) {
        const datagen::LabeledColumn& lc = bench.columns[ids[k]];
        t.columns.push_back(lc.column);
        t.columns.back().name = "c" + std::to_string(ids[k]);
        for (size_t row : lc.error_rows) {
          labels += t.columns.back().name + "\t" + std::to_string(row) + "\n";
          ++total_errors;
        }
      }
      WriteFile(dir + "/" + path, table::WriteCsv(t));
      m.check.push_back(path);
    }
  }
  WriteFile(dir + "/labels.tsv", labels);

  // The served tables. Timed request i sends serve[i % size]; the warm-up
  // sends every table of the cycle once, or for serve_fresh `warmup`
  // extra fresh tables, so the timed phases see a warmed-up process but
  // no value of theirs in advance.
  const bool fresh = workload == "serve_fresh";
  const size_t count = fresh ? requests + NeedNumber(flags, "warmup")
                             : NeedNumber(flags, "pool");
  const int64_t rows_min = NeedNumber(flags, "rows-min");
  const int64_t rows_max = NeedNumber(flags, "rows-max");
  const int64_t cols_min = NeedNumber(flags, "cols-min");
  const int64_t cols_max = NeedNumber(flags, "cols-max");
  const double machine = NeedNumber(flags, "machine-permille") / 1e3;
  util::Rng rng(seed * 7919 + (fresh ? 2 : 1));
  struct Shape {
    size_t rows, cols;
    uint64_t seed;
  };
  // serve_fresh draws each table's shape; the serve_repeat pool spans
  // the shape ranges evenly, so its mean request size is the same at
  // every seed and only the values change.
  std::vector<Shape> shapes;
  for (size_t i = 0; i < count; ++i) {
    Shape s;
    if (fresh) {
      s.rows = static_cast<size_t>(rng.UniformInt(rows_min, rows_max));
      s.cols = static_cast<size_t>(rng.UniformInt(cols_min, cols_max));
    } else {
      const int64_t k = static_cast<int64_t>(i);
      const int64_t last = std::max<int64_t>(1, count - 1);
      s.rows = static_cast<size_t>(rows_min +
                                   (rows_max - rows_min) * k / last);
      s.cols = static_cast<size_t>(cols_min +
                                   k * 5 % (cols_max - cols_min + 1));
    }
    s.seed = rng.UniformInt(1, int64_t{1} << 40);
    shapes.push_back(s);
  }
  std::vector<std::string> csv(count);
  util::parallel::ParallelFor(count, [&](size_t i) {
    csv[i] = table::WriteCsv(
        ServeTable(shapes[i].rows, shapes[i].cols, machine, shapes[i].seed));
  });
  for (size_t i = 0; i < count; ++i) {
    const std::string path = "serve/s" + std::to_string(i) + ".csv";
    WriteFile(dir + "/" + path, csv[i]);
    (fresh && i >= requests ? m.warmup : m.serve).push_back(path);
  }
  if (!fresh) m.warmup = m.serve;
  std::string manifest;
  for (const auto& p : m.check) manifest += "check " + p + "\n";
  for (const auto& p : m.serve) manifest += "serve " + p + "\n";
  for (const auto& p : m.warmup) manifest += "warmup " + p + "\n";
  WriteFile(dir + "/manifest.tsv", manifest);
  std::printf("{\"check_tables\": %zu, \"serve_tables\": %zu, "
              "\"labeled_errors\": %zu}\n",
              m.check.size(), m.serve.size(), total_errors);
  return 0;
}

// ---------------------------------------------------------------------------
// The serving-side model, rebuilt the way `autotest check` and `autotest
// serve` rebuild it today (corpus from the recipe, then the evaluation
// functions the rule ids resolve against).
// ---------------------------------------------------------------------------

datagen::CorpusProfile RecipeProfile() {
  return datagen::RelationalTablesProfile(kRecipeColumns);
}

table::Corpus RecipeCorpus() {
  auto corpus = datagen::TryGenerateCorpusSharded(
      RecipeProfile(), kRecipeShards, table::ShardLoadOptions{});
  if (!corpus.ok()) Die(corpus.status().ToString());
  return std::move(*corpus);
}

core::AutoTestConfig RecipeConfig() {
  core::AutoTestConfig config;
  config.eval_options.embedding_centroids_per_model = kRecipeCentroids;
  config.train_options.synthetic_count = kRecipeSynthetic;
  return config;
}

/// The detections `autotest check` / `autotest serve` report for a table,
/// as (column, row, conf) lines in column order.
std::vector<std::string> ReferenceLines(const core::SdcPredictor& predictor,
                                        const table::Table& t) {
  std::vector<std::string> lines;
  for (const auto& column : t.columns) {
    if (table::IsMostlyNumeric(column)) continue;
    auto detections = predictor.TryPredict(column);
    if (!detections.ok()) Die(detections.status().ToString());
    for (const auto& d : *detections) {
      lines.push_back(column.name + "\t" + std::to_string(d.row) + "\t" +
                      FormatConf(d.confidence));
    }
  }
  return lines;
}

/// The check report's detection lines per table path, in the same
/// (column, row, conf) form. Report lines look like
///   checking <path> with <n> rules
///   <column>:<line>  "<value>"  conf=<c>
///       <explanation>
/// where <line> is the 1-based file line (header = line 1).
std::map<std::string, std::vector<std::string>> ParseCheckReport(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::map<std::string, std::vector<std::string>> out;
  std::vector<std::string>* current = nullptr;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("checking ", 0) == 0) {
      const size_t with = line.rfind(" with ");
      current = &out[line.substr(9, with - 9)];
      continue;
    }
    if (current == nullptr || line.empty() || line[0] == ' ') continue;
    const size_t conf = line.rfind("  conf=");
    const size_t colon = line.find(':');
    const size_t quote = line.find("  \"");
    if (conf == std::string::npos || colon == std::string::npos ||
        quote == std::string::npos || quote < colon) {
      continue;
    }
    const long file_line =
        std::strtol(line.substr(colon + 1, quote - colon - 1).c_str(),
                    nullptr, 10);
    current->push_back(line.substr(0, colon) + "\t" +
                       std::to_string(file_line - 2) + "\t" +
                       line.substr(conf + 7));
  }
  return out;
}

int CmdVerify(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv);
  const std::string dir = Need(flags, "dir");
  const std::string rules_path = Need(flags, "rules");
  const std::string report_path = Need(flags, "check-report");
  const size_t requests = NeedNumber(flags, "requests");
  const std::string ref_path = Need(flags, "out-ref");
  const Manifest m = ReadManifest(dir);

  table::Corpus corpus = RecipeCorpus();
  typedet::EvalFunctionSet evals =
      typedet::EvalFunctionSet::Build(corpus, RecipeConfig().eval_options);
  auto rules = core::TryLoadRulesFromFile(rules_path, evals);
  if (!rules.ok()) Die(rules.status().ToString());
  core::SdcPredictor predictor(std::move(*rules));

  std::vector<std::string> paths = m.check;
  for (const auto* list : {&m.serve, &m.warmup}) {
    for (const auto& p : *list) {
      if (std::find(paths.begin(), paths.end(), p) == paths.end()) {
        paths.push_back(p);
      }
    }
  }
  std::vector<table::Table> tables(paths.size());
  std::vector<std::vector<std::string>> ref(paths.size());
  util::parallel::ParallelFor(paths.size(), [&](size_t i) {
    tables[i] = ReadTable(dir + "/" + paths[i]);
    ref[i] = ReferenceLines(predictor, tables[i]);
  });
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < paths.size(); ++i) index[paths[i]] = i;

  std::string ref_text;
  for (size_t i = 0; i < paths.size(); ++i) {
    ref_text += "table\t" + paths[i] + "\t" + std::to_string(ref[i].size()) +
                "\n";
    for (const auto& l : ref[i]) ref_text += l + "\n";
  }
  WriteFile(ref_path, ref_text);

  // The check report must list exactly the reference detections.
  auto report = ParseCheckReport(report_path);
  size_t check_mismatches = 0;
  for (const auto& p : m.check) {
    auto it = report.find(dir + "/" + p);
    if (it == report.end() || it->second != ref[index[p]]) ++check_mismatches;
  }

  // Quality of the check report against the labels.
  std::set<std::pair<std::string, size_t>> truth;
  {
    std::ifstream in(dir + "/labels.tsv");
    std::string col;
    size_t row = 0;
    while (in >> col >> row) truth.insert({col, row});
  }
  std::vector<eval::ScoredPrediction> scored;
  for (const auto& p : m.check) {
    auto it = report.find(dir + "/" + p);
    if (it == report.end()) continue;
    for (const auto& l : it->second) {
      std::istringstream fields(l);
      std::string col;
      size_t row = 0;
      double conf = 0.0;
      fields >> col >> row >> conf;
      eval::ScoredPrediction s;
      s.column = std::strtoull(col.c_str() + 1, nullptr, 10);
      s.row = row;
      s.score = conf;
      s.is_true_error = truth.count({col, row}) > 0;
      scored.push_back(s);
    }
  }
  eval::PrCurve curve = eval::ComputePrCurve(scored, truth.size());
  const double f1 = eval::F1AtPrecision(curve, 0.8);

  // Properties of the timed request sequence: cells whose value the
  // server has seen before (in its training corpus, the warm-up or an
  // earlier request), cells it flags, and request shape.
  std::unordered_set<std::string> seen;
  for (const auto& column : corpus) {
    for (const auto& v : column.values) seen.insert(v);
  }
  for (const auto& p : m.warmup) {
    for (const auto& column : tables[index[p]].columns) {
      for (const auto& v : column.values) seen.insert(v);
    }
  }
  size_t cells = 0, seen_cells = 0, flagged = 0, rows = 0, cols = 0;
  for (size_t r = 0; r < requests; ++r) {
    const size_t i = index[m.serve[r % m.serve.size()]];
    rows += tables[i].num_rows();
    cols += tables[i].num_columns();
    flagged += ref[i].size();
    for (const auto& column : tables[i].columns) {
      if (table::IsMostlyNumeric(column)) continue;
      for (const auto& v : column.values) {
        ++cells;
        if (!seen.insert(v).second) ++seen_cells;
      }
    }
  }
  const double n = static_cast<double>(std::max<size_t>(requests, 1));
  std::printf(
      "{\"pr_auc\": %s, \"f1_at_p08\": %s, \"labeled_errors\": %zu, "
      "\"check_mismatches\": %zu, "
      "\"seen_value_share\": %s, \"flagged_cell_share\": %s, "
      "\"rows_per_request\": %s, \"columns_per_request\": %s}\n",
      FormatDouble(curve.auc).c_str(), FormatDouble(f1).c_str(), truth.size(),
      check_mismatches,
      FormatDouble(cells ? static_cast<double>(seen_cells) / cells : 0.0)
          .c_str(),
      FormatDouble(cells ? static_cast<double>(flagged) / cells : 0.0)
          .c_str(),
      FormatDouble(static_cast<double>(rows) / n).c_str(),
      FormatDouble(static_cast<double>(cols) / n).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// In-memory span store, written out when the run ends. A span's layer
/// names the module whose call it wraps; spans with an empty layer are
/// the CLI's own composition and count as uncovered.
class Tracer {
 public:
  int Begin(std::string name, std::string layer, int parent,
            int64_t request = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        Span{std::move(name), std::move(layer), parent, request, NowNs(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end = NowNs();
  }
  /// A span from timestamps taken elsewhere.
  int Add(std::string name, std::string layer, int parent, int64_t request,
          int64_t start, int64_t end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        Span{std::move(name), std::move(layer), parent, request, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }
  std::string Json() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"parent\": %d, \"request\": %" PRId64
                    ", \"start_ns\": %" PRId64 ", \"end_ns\": %" PRId64 "}",
                    s.parent, s.request, s.start, s.end);
      out += (i ? ",\n" : "\n") + std::string("{\"id\": ") +
             std::to_string(i) + ", \"name\": \"" + JsonEscape(s.name) +
             "\", \"layer\": \"" + JsonEscape(s.layer) + "\", " + buf;
    }
    return out + "\n]";
  }

 private:
  struct Span {
    std::string name;
    std::string layer;
    int parent;
    int64_t request;
    int64_t start;
    int64_t end;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, std::string name, std::string layer, int parent,
        int64_t request = -1)
      : t_(t), id_(t.Begin(std::move(name), std::move(layer), parent,
                           request)) {}
  ~Scope() { t_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

struct Counts {
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> samples;
};

/// corpus -> evaluation functions -> trainer, each in its own span (the
/// part `train`, `check` and `serve` all run today).
struct Trained {
  table::Corpus corpus;
  std::unique_ptr<typedet::EvalFunctionSet> evals;
  core::TrainedModel model;
};

Trained TracedTrain(Tracer& tr, int parent) {
  Trained t;
  const core::AutoTestConfig config = RecipeConfig();
  {
    Scope s(tr, "datagen.corpus", "datagen", parent);
    t.corpus = RecipeCorpus();
  }
  {
    Scope s(tr, "typedet.evalset_build", "typedet", parent);
    t.evals = std::make_unique<typedet::EvalFunctionSet>(
        typedet::EvalFunctionSet::Build(t.corpus, config.eval_options));
  }
  {
    Scope s(tr, "core.train", "core.train", parent);
    t.model = core::TrainAutoTest(t.corpus, *t.evals, config.train_options);
  }
  return t;
}

std::vector<std::string> RequestBodies(const std::string& dir,
                                       const Manifest& m, size_t begin,
                                       size_t end) {
  std::vector<std::string> bodies;
  for (size_t r = begin; r < end; ++r) {
    std::ifstream in(dir + "/" + m.serve[r % m.serve.size()],
                     std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    bodies.push_back(body.str());
  }
  return bodies;
}

int CmdTrace(int argc, char** argv) {
  auto flags = ParseFlags(argc, argv);
  const std::string dir = Need(flags, "dir");
  const size_t k = NeedNumber(flags, "requests");
  const std::string rules_out = Need(flags, "rules-out");
  const std::string out_path = Need(flags, "out");
  const Manifest m = ReadManifest(dir);
  Tracer tr;
  Counts counts;
  util::parallel::ResetStats();
  const int main_span = tr.Begin("main", "", -1);

  // `autotest train`: corpus, evaluation functions, trainer, selection,
  // rules file.
  Trained trained;
  {
    Scope cli(tr, "cli.train", "", main_span);
    trained = TracedTrain(tr, cli.id());
    const core::TrainedModel& model = trained.model;
    counts.values["typedet.evals"] = trained.evals->size();
    counts.values["core.train.enumerated"] = model.candidates_enumerated;
    counts.values["core.train.pruned"] = model.candidates_pruned;
    counts.values["core.train.rejected"] = model.candidates_rejected;
    counts.values["core.train.kept"] = model.constraints.size();
    counts.values["core.train.candidate_gen_cpu_s"] =
        model.timings.candidate_gen_seconds;
    counts.values["core.train.recall_est_s"] =
        model.timings.synthetic_seconds;
    core::SelectionResult sel;
    {
      Scope s(tr, "core.select", "core.select", cli.id());
      sel = core::CoarseThenFineSelect(model,
                                       RecipeConfig().selection_options);
    }
    counts.values["lp.vars"] = sel.lp_num_variables;
    counts.values["lp.rows"] = sel.lp_num_rows;
    counts.values["core.select.rules"] = sel.selected.size();
    std::vector<core::Sdc> rules;
    for (size_t i : sel.selected) rules.push_back(model.constraints[i]);
    Scope s(tr, "core.rules_save", "core.serialization", cli.id());
    util::Status saved = core::TrySaveRulesToFile(rules, rules_out);
    if (!saved.ok()) Die(saved.ToString());
  }

  // Per-family BatchDistance over the request values of slice 0: a first
  // (cold) and a second (warm) pass over the same value pool.
  {
    Scope phase(tr, "bench.batch", "", main_span);
    table::Corpus request_columns;
    for (const std::string& body : RequestBodies(dir, m, 0, k)) {
      auto t = table::TryParseCsv(body);
      if (!t.ok()) Die(t.status().ToString());
      for (auto& c : t->columns) {
        if (!table::IsMostlyNumeric(c)) request_columns.push_back(std::move(c));
      }
    }
    table::ColumnStore store = table::ColumnStore::FromCorpus(request_columns);
    const auto pool = store.pool();
    const std::pair<typedet::Family, const char*> families[] = {
        {typedet::Family::kCta, "cta"},
        {typedet::Family::kEmbedding, "embedding"},
        {typedet::Family::kPattern, "pattern"},
        {typedet::Family::kFunction, "function"}};
    std::vector<double> out(256);
    for (const auto& [family, name] : families) {
      const auto functions = trained.evals->FamilyFunctions(family);
      for (const char* pass : {"cold", "warm"}) {
        const std::string span = std::string("typedet.batch.") + name + "." +
                                 pass;
        const int64_t start = NowNs();
        {
          Scope s(tr, span, "typedet", phase.id());
          for (const auto* f : functions) {
            for (size_t off = 0; off < pool.size(); off += out.size()) {
              const size_t n = std::min(out.size(), pool.size() - off);
              f->BatchDistance(pool.subspan(off, n),
                               std::span<double>(out.data(), n),
                               store.pool_id(), off);
            }
          }
        }
        const double ns = static_cast<double>(NowNs() - start);
        counts.values[std::string("typedet.batch_ns_per_value.") + name +
                      "." + pass] =
            pool.empty() ? 0.0 : ns / static_cast<double>(pool.size());
      }
    }
  }

  // `autotest check` over the request tables of slice 1: retrain on load,
  // load the rules, then parse and predict table by table.
  {
    Scope cli(tr, "cli.check", "", main_span);
    Trained t = TracedTrain(tr, cli.id());
    std::vector<core::Sdc> rules;
    {
      Scope s(tr, "core.rules_load", "core.serialization", cli.id());
      auto loaded = core::TryLoadRulesFromFile(rules_out, *t.evals);
      if (!loaded.ok()) Die(loaded.status().ToString());
      rules = std::move(*loaded);
    }
    core::SdcPredictor predictor(std::move(rules));
    const auto bodies = RequestBodies(dir, m, k, 2 * k);
    for (size_t r = 0; r < bodies.size(); ++r) {
      const int64_t req = static_cast<int64_t>(k + r);
      util::Result<table::Table> table = util::InternalError("unparsed");
      const int64_t parse_start = NowNs();
      {
        Scope s(tr, "table.csv_parse", "table", cli.id(), req);
        table = table::TryParseCsv(bodies[r]);
      }
      counts.samples["table.csv_parse_us"].push_back(
          (NowNs() - parse_start) / 1e3);
      if (!table.ok()) Die(table.status().ToString());
      std::vector<const table::Column*> kept;
      double distinct = 0;
      for (const auto& c : table->columns) {
        if (table::IsMostlyNumeric(c)) continue;
        kept.push_back(&c);
        distinct += table::Distinct(c).values.size();
      }
      double groups = 0, detections = 0;
      const int64_t predict_start = NowNs();
      {
        Scope s(tr, "core.predict", "core.predict", cli.id(), req);
        for (const table::Column* c : kept) {
          auto p = predictor.TryPredict(*c, core::PredictBudget{});
          if (!p.ok()) Die(p.status().ToString());
          groups += p->groups_evaluated;
          detections += p->detections.size();
        }
      }
      counts.samples["core.predict_us"].push_back(
          (NowNs() - predict_start) / 1e3);
      counts.samples["core.predict.distinct_values"].push_back(distinct);
      counts.samples["core.predict.groups_evaluated"].push_back(groups);
      counts.samples["core.predict.detections"].push_back(detections);
    }
  }

  // `autotest serve` with slice 2 sent one request at a time over TCP to
  // an in-process serve::Server; the phase hook timestamps each phase.
  {
    Scope cli(tr, "cli.serve", "", main_span);
    Trained t = TracedTrain(tr, cli.id());
    serve::SnapshotStore store(t.evals.get(), rules_out);
    {
      Scope s(tr, "core.rules_load", "core.serialization", cli.id());
      util::Status loaded = store.TryReload();
      if (!loaded.ok()) Die(loaded.ToString());
    }
    // Requests are sent one at a time, so every hook belongs to the one
    // request in flight.
    std::atomic<int64_t> phase_ns[4] = {0, 0, 0, 0};
    serve::ServeOptions options;
    options.phase_hook = [&phase_ns](std::string_view phase) {
      static constexpr std::string_view kPhases[] = {"read", "parse",
                                                     "predict", "report"};
      for (size_t i = 0; i < 4; ++i) {
        if (phase == kPhases[i]) phase_ns[i].store(NowNs());
      }
    };
    serve::Server server(&store, options);
    {
      Scope s(tr, "serve.start", "serve.lifecycle", cli.id());
      util::Status started = server.Start();
      if (!started.ok()) Die(started.ToString());
    }
    const auto bodies = RequestBodies(dir, m, 2 * k, 3 * k);
    for (size_t r = 0; r < bodies.size(); ++r) {
      const int64_t req = static_cast<int64_t>(2 * k + r);
      serve::Request request;
      request.verb = "check";
      request.table = m.serve[(2 * k + r) % m.serve.size()];
      request.body = bodies[r];
      const std::string payload = serve::SerializeRequest(request);
      for (auto& p : phase_ns) p.store(0);
      const int64_t send = NowNs();
      auto fd = serve::TryConnect("127.0.0.1", server.port());
      if (!fd.ok()) Die(fd.status().ToString());
      util::Status sent = serve::TryWriteFrame(*fd, payload);
      const int64_t written = NowNs();
      auto response = serve::TryReadFrame(*fd, size_t{64} << 20);
      const int64_t recv = NowNs();
      ::close(*fd);
      if (!sent.ok()) Die(sent.ToString());
      if (!response.ok()) Die(response.status().ToString());
      auto parsed = serve::TryParseResponse(*response);
      if (!parsed.ok() || parsed->code != util::StatusCode::kOk) {
        Die("traced serve request " + std::to_string(req) + " failed");
      }
      int64_t ts[4];
      for (size_t i = 0; i < 4; ++i) ts[i] = phase_ns[i].load();
      if (!(send <= ts[0] && ts[0] <= ts[1] && ts[1] <= ts[2] &&
            ts[2] <= ts[3] && ts[3] <= recv)) {
        Die("phase hooks out of order for request " + std::to_string(req));
      }
      const int id = tr.Add("serve.request", "serve.queue_wait", cli.id(),
                            req, send, recv);
      tr.Add("serve.read", "serve.read", id, req, ts[0], ts[1]);
      tr.Add("serve.parse", "serve.parse", id, req, ts[1], ts[2]);
      tr.Add("serve.predict", "serve.predict", id, req, ts[2], ts[3]);
      tr.Add("serve.report", "serve.report", id, req, ts[3], recv);
      counts.samples["serve.read_us"].push_back((ts[1] - ts[0]) / 1e3);
      counts.samples["serve.parse_us"].push_back((ts[2] - ts[1]) / 1e3);
      counts.samples["serve.predict_us"].push_back((ts[3] - ts[2]) / 1e3);
      counts.samples["serve.report_us"].push_back((recv - ts[3]) / 1e3);
      counts.samples["serve.handle_us"].push_back((recv - ts[0]) / 1e3);
      counts.samples["serve.queue_wait_us"].push_back((ts[0] - send) / 1e3);
      counts.samples["serve.wire_us"].push_back((written - send) / 1e3);
    }
    Scope s(tr, "serve.stop", "serve.lifecycle", cli.id());
    server.StopAndDrain();
  }
  tr.End(main_span);

  const util::parallel::StatsSnapshot stats = util::parallel::SnapshotStats();
  counts.values["parallel.steals"] = static_cast<double>(stats.steals);
  counts.values["parallel.utilization"] = stats.utilization();

  std::string json = "{\"counts\": {";
  bool first = true;
  for (const auto& [key, v] : counts.values) {
    json += (first ? "\n\"" : ",\n\"") + key + "\": " + FormatDouble(v);
    first = false;
  }
  json += "},\n\"samples\": {";
  first = true;
  for (const auto& [key, values] : counts.samples) {
    json += (first ? "\n\"" : ",\n\"") + key + "\": [";
    for (size_t i = 0; i < values.size(); ++i) {
      json += (i ? ", " : "") + FormatDouble(values[i]);
    }
    json += "]";
    first = false;
  }
  json += "},\n\"spans\": " + tr.Json() + "}\n";
  WriteFile(out_path, json);
  return 0;
}

// ---------------------------------------------------------------------------
// Wire samples for the load generator's codec test.
// ---------------------------------------------------------------------------

std::string Hex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

int CmdWire() {
  serve::Request check;
  check.verb = "check";
  check.deadline_ms = 2500;
  check.table = "serve/s1.csv";
  check.tenant = "bench";
  check.body = "c0,c1\nalpha,\"b,eta\"\n";
  serve::Request ping;
  ping.verb = "ping";
  serve::Response ok;
  ok.AddField("version", "1");
  ok.AddField("detections", "2");
  ok.body = "c0\t3\tx\t0.91\twhy\nc1\t0\ty\t0.85\twhy\n";
  serve::Response shed = serve::ShedResponse("shed");
  std::printf(
      "{\"requests\": [\n"
      "{\"verb\": \"check\", \"deadline_ms\": 2500, \"table\": "
      "\"serve/s1.csv\", \"tenant\": \"bench\", \"body\": \"%s\", "
      "\"frame\": \"%s\"},\n"
      "{\"verb\": \"ping\", \"deadline_ms\": 0, \"table\": \"\", "
      "\"tenant\": \"\", \"body\": \"\", \"frame\": \"%s\"}],\n"
      "\"responses\": [\n"
      "{\"code\": \"OK\", \"fields\": [[\"version\", \"1\"], "
      "[\"detections\", \"2\"]], \"body\": \"%s\", \"frame\": \"%s\"},\n"
      "{\"code\": \"%s\", \"fields\": [[\"reason\", \"shed\"]], "
      "\"body\": \"%s\", \"frame\": \"%s\"}]}\n",
      JsonEscape(check.body).c_str(),
      Hex(serve::EncodeFrame(serve::SerializeRequest(check))).c_str(),
      Hex(serve::EncodeFrame(serve::SerializeRequest(ping))).c_str(),
      JsonEscape(ok.body).c_str(),
      Hex(serve::EncodeFrame(serve::SerializeResponse(ok))).c_str(),
      std::string(util::StatusCodeName(shed.code)).c_str(),
      JsonEscape(shed.body).c_str(),
      Hex(serve::EncodeFrame(serve::SerializeResponse(shed))).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_tool gen|verify|trace|wire [flags]");
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc - 2, argv + 2);
  if (cmd == "verify") return CmdVerify(argc - 2, argv + 2);
  if (cmd == "trace") return CmdTrace(argc - 2, argv + 2);
  if (cmd == "wire") return CmdWire();
  Die("unknown command " + cmd);
}
