// The measured process of the repository benchmark (see README.md).
//
//   perfbench_run --workload <name> --data <dir> --seconds <s> --trace <0|1>
//                 [--seed <n>] [--commit <id>] [--min-reps <n>]
//
// Reads the CSVs perfbench_gen wrote into <dir>; it never links datagen, so
// set-up time and peak RSS are the program's alone. One client, closed loop:
// each discovery or translation starts when the previous one returned.
//
// --trace 0 prints the end-to-end metrics: discovery at min(4, nproc)
// threads and at 1 thread, CSV ingest, bulk translation throughput, peak RSS
// and coverage. --trace 1 prints the per-layer metrics: it repeats the
// discovery as a sequence of timed public calls (target index build, search
// construction, Step 1, Step 2, refinement, coverage, SQL emission),
// interleaved with untraced discoveries it is compared against.
//
// Every operation is checked: the formula must be one of datagen's expected
// renderings; formula and SearchStats counts must agree at 1 and N threads;
// vm::Translate output must match a digest of TranslationFormula::Apply's.
// The last stdout line is {"correct", "attempted", "failed", "metrics"}; any
// failed operation makes the exit code 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/matcher.h"
#include "core/separator.h"
#include "core/sql_emitter.h"
#include "relational/column_index.h"
#include "relational/csv.h"
#include "text/simd.h"
#include "vm/compiler.h"
#include "vm/executor.h"

using namespace mcsm;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Workloads. Sizes live in run.py (they choose the generated inputs); what is
// fixed here is how each input is searched and stored.

struct Workload {
  std::string name;
  core::SearchOptions search;
  /// parts-bulk: the bulk source is stored under a page budget of its CSV
  /// bytes / kBulkBudgetDivisor, so the pager has to spill.
  bool paged_bulk = false;
};

constexpr uint64_t kBulkBudgetDivisor = 8;

std::optional<Workload> MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "citeseer") {
    w.search.sample_fraction = 0.01;  // Section 4.4's 1% samples
    w.search.max_sample = 4000;
  } else if (name == "fullname") {
    // Section 4.3 runs with the default 10% samples.
  } else if (name == "parts-bulk") {
    w.search.detect_separators = true;  // Section 6.1
    w.paged_bulk = true;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Operation accounting: every ingest, discovery and translation pass is one
// attempted operation; a failed one is reported on stderr and counted.

class Tally {
 public:
  void Ok() { ++attempted_; }
  void Fail(const std::string& what) {
    ++attempted_;
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// relational: CSV ingest through the streaming parser.

struct Inputs {
  relational::Table source;
  relational::Table target;
  relational::Table bulk;  ///< the larger source bulk translation runs over
  size_t target_column = 0;
  uint64_t input_bytes = 0;  ///< CSV bytes ingested, all files
};

Result<relational::Table> IngestCsv(const std::string& path,
                                    const relational::TableOptions& options,
                                    uint64_t* bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  relational::CsvReadReport report;
  relational::CsvStreamParser parser(relational::CsvOptions{}, &report,
                                     options);
  std::string chunk(1 << 20, '\0');
  size_t n = 0;
  Status st = Status::OK();
  while (st.ok() && (n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    *bytes += n;
    st = parser.Feed(std::string_view(chunk.data(), n));
  }
  std::fclose(f);
  MCSM_RETURN_IF_ERROR(st);
  MCSM_ASSIGN_OR_RETURN(relational::Table table, parser.Finish());
  if (report.rows_dropped != 0) {
    return Status::Internal(path + ": rows dropped on ingest");
  }
  return table;
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

Result<Inputs> Ingest(const std::string& dir, const Workload& workload,
                      const std::string& target_column_name) {
  Inputs in;
  const relational::TableOptions in_memory;
  MCSM_ASSIGN_OR_RETURN(in.source, IngestCsv(dir + "/source.csv", in_memory,
                                             &in.input_bytes));
  MCSM_ASSIGN_OR_RETURN(in.target, IngestCsv(dir + "/target.csv", in_memory,
                                             &in.input_bytes));
  auto column = in.target.schema().FindColumn(target_column_name);
  if (!column.has_value()) {
    return Status::NotFound("no target column " + target_column_name);
  }
  in.target_column = *column;
  const std::string bulk_path = dir + "/bulk.csv";
  relational::TableOptions bulk_options;
  if (workload.paged_bulk) {
    bulk_options.page_budget_bytes =
        std::max<uint64_t>(1, FileBytes(bulk_path) / kBulkBudgetDivisor);
  }
  MCSM_ASSIGN_OR_RETURN(in.bulk,
                        IngestCsv(bulk_path, bulk_options, &in.input_bytes));
  MCSM_RETURN_IF_ERROR(in.bulk.storage_status());
  return in;
}

// ---------------------------------------------------------------------------
// core: discovery and its checks.

struct Counts {
  size_t pairs_scored = 0;
  size_t recipes_built = 0;
  size_t formulas_considered = 0;
  size_t postings_scanned = 0;

  bool operator==(const Counts&) const = default;
  static Counts Of(const core::SearchStats& s) {
    return {s.pairs_scored, s.recipes_built, s.formulas_considered,
            s.postings_scanned};
  }
};

struct Discovery {
  core::TranslationFormula formula;
  std::string rendered;
  Counts counts;
  double coverage = 0;  ///< matched target rows / target rows
  double seconds = 0;
};

/// The expected formula and counts every discovery must reproduce: datagen
/// fixes the accepted renderings, and the first discovery of the run fixes
/// the exact rendering and the counts.
struct Expectation {
  std::vector<std::string> formulas;
  std::optional<std::string> rendered;
  std::optional<Counts> counts;
  /// Per source column: the length every value has, when all share one.
  std::map<size_t, std::optional<size_t>> uniform_length;
};

std::optional<size_t> UniformLength(const relational::Table& table,
                                    size_t column) {
  std::optional<size_t> length;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    const size_t n = table.TextAt(row, column).size();
    if (length.has_value() && *length != n) return std::nullopt;
    length = n;
  }
  return length;
}

/// year[1-4] and year[1-n] select the same characters when every year is 4
/// long; this renders such spans as [x-n], so either spelling matches
/// datagen's expected rendering.
std::string CanonicalRendering(const core::TranslationFormula& formula,
                               const relational::Table& source,
                               Expectation* expect) {
  std::vector<core::Region> regions = formula.regions();
  for (core::Region& r : regions) {
    if (r.kind != core::Region::Kind::kColumnSpan || r.to_end) continue;
    auto [it, inserted] = expect->uniform_length.try_emplace(r.column);
    if (inserted) it->second = UniformLength(source, r.column);
    if (it->second == r.end) r = core::Region::SpanToEnd(r.column, r.start);
  }
  return core::TranslationFormula(std::move(regions)).ToString(source.schema());
}

core::SearchOptions WithThreads(const Workload& workload, size_t threads) {
  core::SearchOptions options = workload.search;
  options.num_threads = threads;
  return options;
}

/// Checks a formula against datagen's renderings and, once fixed, the exact
/// rendering and the counts.
bool CheckDiscovery(const Discovery& d, const relational::Table& source,
                    size_t threads, Expectation* expect, Tally* tally) {
  const std::string where = "discovery at t=" + std::to_string(threads) + ": ";
  const auto& ok = expect->formulas;
  if (std::find(ok.begin(), ok.end(), d.rendered) == ok.end() &&
      std::find(ok.begin(), ok.end(),
                CanonicalRendering(d.formula, source, expect)) == ok.end()) {
    tally->Fail(where + "wrong formula " + d.rendered);
    return false;
  }
  if (!expect->rendered.has_value()) expect->rendered = d.rendered;
  if (d.rendered != *expect->rendered) {
    tally->Fail(where + "formula " + d.rendered + " differs from the first " +
                *expect->rendered);
    return false;
  }
  if (!expect->counts.has_value()) expect->counts = d.counts;
  if (!(d.counts == *expect->counts)) {
    tally->Fail(where + "SearchStats counts differ across runs/threads");
    return false;
  }
  tally->Ok();
  return true;
}

std::optional<Discovery> Discover(const Inputs& in, const Workload& workload,
                                  size_t threads, Expectation* expect,
                                  Tally* tally) {
  const auto start = Clock::now();
  auto d = core::DiscoverTranslation(in.source, in.target, in.target_column,
                                     WithThreads(workload, threads));
  const double seconds = SecondsSince(start);
  const std::string where = "discovery at t=" + std::to_string(threads) + ": ";
  if (!d.ok()) {
    tally->Fail(where + d.status().ToString());
    return std::nullopt;
  }
  if (d->truncated() || !d->formula().IsComplete() || d->sql.empty()) {
    tally->Fail(where + "truncated or incomplete formula");
    return std::nullopt;
  }
  Discovery out;
  out.formula = d->formula();
  out.rendered = out.formula.ToString(in.source.schema());
  out.counts = Counts::Of(d->search.stats);
  out.coverage = static_cast<double>(d->coverage.matched_rows()) /
                 static_cast<double>(std::max<size_t>(1, in.target.num_rows()));
  out.seconds = seconds;
  if (!CheckDiscovery(out, in.source, threads, expect, tally)) {
    return std::nullopt;
  }
  return out;
}

/// Times of one discovery replayed as public calls, following Run()'s
/// control flow (restarts included) and DiscoverTranslation's packaging.
struct TracedDiscovery {
  Discovery result;
  double index_ms = 0;    ///< target ColumnIndex build with postings
  double init_ms = 0;     ///< TranslationSearch construction (separators)
  double step1_ms = 0;    ///< SelectStartColumn
  double step2_ms = 0;    ///< BuildInitialFormulas, summed over start columns
  double refine_ms = 0;   ///< RefineOnce, summed
  double coverage_ms = 0; ///< ComputeCoverage, summed
  double sql_ms = 0;      ///< SqlEmitter::ToSql
  double wall_ms = 0;     ///< the whole replay, glue included
  double target_index_mb = 0;
  size_t refine_iters = 0;
  size_t attempts = 0;    ///< (start column, initial formula) branches tried
  size_t support = 0;     ///< summed winning support over refinement passes
  size_t candidates = 0;  ///< summed candidates considered by those passes

  double layer_ms() const {
    return index_ms + init_ms + step1_ms + step2_ms + refine_ms +
           coverage_ms + sql_ms;
  }
};

/// Milliseconds since `*mark`; moves the mark to now.
double MsSince(Clock::time_point* mark) {
  const auto now = Clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(now - *mark).count();
  *mark = now;
  return ms;
}

Result<TracedDiscovery> DiscoverTraced(const Inputs& in,
                                       const Workload& workload,
                                       size_t threads) {
  TracedDiscovery t;
  core::SearchOptions options = WithThreads(workload, threads);
  MCSM_RETURN_IF_ERROR(options.Validate());
  const auto start = Clock::now();
  auto mark = start;

  relational::ColumnIndex::Options index_options;
  index_options.q = options.q;
  index_options.build_postings = true;
  auto index = std::make_shared<const relational::ColumnIndex>(
      in.target, in.target_column, index_options);
  t.index_ms = MsSince(&mark);
  t.target_index_mb = static_cast<double>(index->ApproxMemoryBytes()) / kMiB;
  options.env.target_index = index;

  core::TranslationSearch search(in.source, in.target, in.target_column,
                                 options);
  t.init_ms = MsSince(&mark);

  auto selection = search.SelectStartColumn();
  t.step1_ms = MsSince(&mark);
  MCSM_RETURN_IF_ERROR(selection.status());

  // Start-column order and the coverage floor exactly as Run() derives them.
  const std::vector<double>& scores = selection->scores;
  std::vector<size_t> start_columns;
  for (size_t c = 0; c < scores.size(); ++c) {
    if (scores[c] > 0.0) start_columns.push_back(c);
  }
  std::sort(start_columns.begin(), start_columns.end(),
            [&](size_t a, size_t b) { return scores[a] > scores[b]; });
  const size_t max_starts = std::max<size_t>(1, options.start_column_candidates);
  if (start_columns.size() > max_starts) start_columns.resize(max_starts);
  const size_t coverage_floor = std::max<size_t>(
      options.min_support,
      static_cast<size_t>(options.min_coverage_fraction *
                          static_cast<double>(std::min(
                              in.source.num_rows(), in.target.num_rows()))));

  std::optional<core::TranslationFormula> accepted;
  for (size_t start_column : start_columns) {
    auto initial = search.BuildInitialFormulas(
        start_column, std::max<size_t>(1, options.initial_candidates));
    t.step2_ms += MsSince(&mark);
    if (!initial.ok()) continue;
    for (const core::TranslationFormula& formula : *initial) {
      ++t.attempts;
      core::TranslationFormula attempt = formula;
      for (size_t iter = 0;
           iter < options.max_iterations && !attempt.IsComplete(); ++iter) {
        core::IterationInfo info;
        auto improved = search.RefineOnce(&attempt, &info);
        t.refine_ms += MsSince(&mark);
        MCSM_RETURN_IF_ERROR(improved.status());
        ++t.refine_iters;
        t.support += info.support;
        t.candidates += info.candidates_considered;
        if (!*improved) break;
      }
      size_t covered = 0;
      if (attempt.IsComplete()) {
        covered = core::TranslationSearch::ComputeCoverage(
                      attempt, in.source, in.target, in.target_column)
                      .matched_rows();
        t.coverage_ms += MsSince(&mark);
      }
      if (covered >= coverage_floor) {
        accepted = std::move(attempt);
        break;
      }
    }
    if (accepted.has_value()) break;
  }
  if (!accepted.has_value()) {
    return Status::NotFound("traced replay accepted no formula");
  }

  // DiscoverTranslation's packaging: coverage for the caller, then SQL.
  const core::Coverage coverage = core::TranslationSearch::ComputeCoverage(
      *accepted, in.source, in.target, in.target_column);
  t.coverage_ms += MsSince(&mark);
  core::SqlEmitter::Options sql_options;
  sql_options.output_column =
      in.target.schema().column(in.target_column).name;
  auto sql = core::SqlEmitter::ToSql(*accepted, in.source.schema(),
                                     sql_options);
  t.sql_ms = MsSince(&mark);
  MCSM_RETURN_IF_ERROR(sql.status());
  t.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count();

  t.result.formula = *accepted;
  t.result.rendered = accepted->ToString(in.source.schema());
  core::SearchStats stats = search.stats();
  stats.postings_scanned =
      static_cast<size_t>(search.budget().postings_scanned());
  t.result.counts = Counts::Of(stats);
  t.result.coverage =
      static_cast<double>(coverage.matched_rows()) /
      static_cast<double>(std::max<size_t>(1, in.target.num_rows()));
  return t;
}

// ---------------------------------------------------------------------------
// vm: bulk translation against the per-row Apply reference.

/// An order-sensitive digest of a translation's output: the covered row ids
/// and each row's value. Only the digest of the reference is kept, so the
/// check adds no copy of the output to the process's memory.
class OutputDigest {
 public:
  void Add(uint32_t row, std::string_view value) {
    ++rows_;
    bytes_ += value.size();
    hash_ = Mix(hash_ ^ row);
    hash_ = Mix(hash_ ^ value.size());
    hash_ = Mix(hash_ ^ std::hash<std::string_view>{}(value));
  }
  size_t rows() const { return rows_; }
  bool operator==(const OutputDigest&) const = default;

 private:
  /// splitmix64's finalizer.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  size_t rows_ = 0;
  uint64_t bytes_ = 0;
  uint64_t hash_ = 0;
};

OutputDigest ApplyReference(const core::TranslationFormula& formula,
                            const relational::Table& table) {
  OutputDigest digest;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (auto value = formula.Apply(table, row)) {
      digest.Add(static_cast<uint32_t>(row), *value);
    }
  }
  return digest;
}

/// The digest of a vm::Translate result, or nothing when its offsets do not
/// delimit its bytes exactly.
std::optional<OutputDigest> DigestOf(const vm::TranslateResult& result) {
  const auto& offsets = result.offsets;
  if (offsets.size() != result.rows.size() + 1 || offsets.front() != 0 ||
      offsets.back() != result.bytes.size()) {
    return std::nullopt;
  }
  OutputDigest digest;
  for (size_t i = 0; i < result.rows.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) return std::nullopt;
    digest.Add(result.rows[i], result.value(i));
  }
  return digest;
}

struct Translator {
  vm::Program program;
  OutputDigest reference;
  vm::TranslateOptions options;
};

Result<Translator> MakeTranslator(const core::TranslationFormula& formula,
                                  const relational::Table& table,
                                  size_t threads) {
  Translator tr;
  MCSM_ASSIGN_OR_RETURN(tr.program,
                        vm::CompileFormula(formula, table.schema()));
  tr.reference = ApplyReference(formula, table);
  tr.options.num_threads = threads;
  return tr;
}

/// Rows translated per loop iteration, at least: a small table is translated
/// several times, so every workload collects enough passes for a steady
/// median.
constexpr size_t kRowsPerIteration = 4'000'000;

/// Timed vm::Translate passes over `table`, appending each pass's seconds to
/// `pass_seconds`. Each pass is checked against the reference outside the
/// timed region; stops at the first error or byte difference (a failure).
void TranslatePasses(const Translator& tr, const relational::Table& table,
                     std::vector<double>* pass_seconds, Tally* tally) {
  const size_t rows = std::max<size_t>(1, table.num_rows());
  const size_t passes = (kRowsPerIteration + rows - 1) / rows;
  for (size_t pass = 0; pass < passes; ++pass) {
    const auto start = Clock::now();
    auto result = vm::Translate(tr.program, table, tr.options);
    const double seconds = SecondsSince(start);
    if (!result.ok()) {
      tally->Fail("translate: " + result.status().ToString());
      return;
    }
    if (result->truncated || result->rows_processed != table.num_rows() ||
        DigestOf(*result) != tr.reference) {
      tally->Fail("translate: output differs from TranslationFormula::Apply");
      return;
    }
    tally->Ok();
    pass_seconds->push_back(seconds);
  }
}

// ---------------------------------------------------------------------------
// Output.

/// A comment line summarising one metric's samples, ahead of the result.
void PrintSamples(const char* name, std::vector<double> samples) {
  if (samples.empty()) return;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    return samples[static_cast<size_t>(q * static_cast<double>(samples.size() - 1))];
  };
  std::printf("# samples %s n=%zu min=%.6g q1=%.6g median=%.6g q3=%.6g "
              "max=%.6g\n",
              name, samples.size(), samples.front(), at(0.25), Median(samples),
              at(0.75), samples.back());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, const Tally& tally,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", tally.attempted(), tally.failed());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

size_t UsableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Only optimized, uninstrumented builds may record numbers.
const char* UnfitBuild() {
#ifndef NDEBUG
  return "assertions enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "not a Release or RelWithDebInfo build";
  }
  return nullptr;
}

struct Args {
  std::string workload;
  std::string data;
  std::string commit = "unknown";
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  size_t min_reps = 3;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--data") {
      a.data = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--min-reps") {
      a.min_reps = std::max<size_t>(1, std::strtoull(value, nullptr, 10));
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || a.data.empty() || !(a.seconds > 0)) {
    return std::nullopt;
  }
  return a;
}

struct Meta {
  std::string target_column;
  std::vector<std::string> formulas;
};

std::optional<Meta> ReadMeta(const std::string& dir) {
  std::ifstream in(dir + "/meta.txt");
  Meta meta;
  if (!std::getline(in, meta.target_column)) return std::nullopt;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) meta.formulas.push_back(line);
  }
  if (meta.formulas.empty()) return std::nullopt;
  return meta;
}

/// Set-up is sampled in kSetupBlocks blocks of kSetupReps ingests: one
/// block before the timed loop, one after it, and the rest inside it at even
/// shares of the window. The host has slow stretches of several seconds;
/// spreading the blocks keeps one stretch from covering most samples. Each
/// ingest replaces the previous copy, which is released first, so peak RSS
/// holds one working set.
constexpr size_t kSetupBlocks = 6;
constexpr size_t kSetupReps = 3;

class SetupSampler {
 public:
  SetupSampler(const Args& args, const Workload& workload, const Meta& meta)
      : args_(args), workload_(workload), meta_(meta) {}

  /// Ingests kSetupReps times and keeps the last copy; false after a failure.
  bool Block(Tally* tally) {
    ++blocks_;
    for (size_t rep = 0; rep < kSetupReps; ++rep) {
      inputs_.reset();
      const auto start = Clock::now();
      auto in = Ingest(args_.data, workload_, meta_.target_column);
      const double seconds = SecondsSince(start);
      if (!in.ok()) {
        tally->Fail("ingest: " + in.status().ToString());
        return false;
      }
      tally->Ok();
      times_.push_back(seconds);
      inputs_.emplace(std::move(in).value());
    }
    return true;
  }

  /// Whether an inner block is due `elapsed` seconds into the window.
  bool InnerDue(double elapsed) const {
    return blocks_ < kSetupBlocks - 1 &&
           elapsed >= args_.seconds * static_cast<double>(blocks_) /
                          static_cast<double>(kSetupBlocks - 1);
  }

  const Inputs& inputs() const { return *inputs_; }
  const std::vector<double>& times() const { return times_; }

 private:
  const Args& args_;
  const Workload& workload_;
  const Meta& meta_;
  std::optional<Inputs> inputs_;
  std::vector<double> times_;
  size_t blocks_ = 0;
};

/// Runs an inner set-up block when one is due, then one untimed (but
/// checked) discovery at `threads`: the first discovery after re-ingesting
/// runs slower (citeseer: 0.54 s → 0.96 s), and it must not be a sample.
/// False after a failure.
bool MaybeSetUpInLoop(double elapsed, const Workload& workload, size_t threads,
                      SetupSampler* setup, Expectation* expect, Tally* tally) {
  if (!setup->InnerDue(elapsed)) return true;
  return setup->Block(tally) &&
         Discover(setup->inputs(), workload, threads, expect, tally)
             .has_value();
}

int RunEndToEnd(const Args& args, const Workload& workload, const Meta& meta,
                size_t threads) {
  Tally tally;
  SetupSampler setup(args, workload, meta);
  if (!setup.Block(&tally)) {
    PrintResult(false, tally, {});
    return 1;
  }
  Expectation expect{meta.formulas, std::nullopt, std::nullopt, {}};

  // Warm-up pair: fixes the rendering and counts every later run must repeat
  // and lets the allocator settle before timing.
  auto first = Discover(setup.inputs(), workload, threads, &expect, &tally);
  if (!first.has_value() ||
      !Discover(setup.inputs(), workload, 1, &expect, &tally)) {
    PrintResult(false, tally, {});
    return 1;
  }
  const size_t bulk_rows = setup.inputs().bulk.num_rows();
  auto translator =
      MakeTranslator(first->formula, setup.inputs().bulk, threads);
  if (!translator.ok()) {
    tally.Fail("compile: " + translator.status().ToString());
    PrintResult(false, tally, {});
    return 1;
  }

  // Each iteration discovers at N threads and at 1 thread, then translates.
  std::vector<double> discover_s, discover_t1_s, translate_s, coverage;
  const auto window = Clock::now();
  while (SecondsSince(window) < args.seconds ||
         discover_s.size() < args.min_reps) {
    if (!MaybeSetUpInLoop(SecondsSince(window), workload, threads, &setup,
                          &expect, &tally)) {
      break;
    }
    const Inputs& in = setup.inputs();
    if (auto d = Discover(in, workload, threads, &expect, &tally)) {
      discover_s.push_back(d->seconds);
      coverage.push_back(d->coverage);
    }
    if (auto d = Discover(in, workload, 1, &expect, &tally)) {
      discover_t1_s.push_back(d->seconds);
    }
    TranslatePasses(*translator, in.bulk, &translate_s, &tally);
  }
  if (tally.failed() == 0) setup.Block(&tally);
  const std::vector<double>& setup_s = setup.times();
  PrintSamples("discover_s", discover_s);
  PrintSamples("discover_t1_s", discover_t1_s);
  PrintSamples("setup_s", setup_s);
  PrintSamples("translate_pass_s", translate_s);

  if (tally.failed() != 0) {
    PrintResult(false, tally, {});
    return 1;
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  PrintResult(true, tally,
              {{"discover_s", Median(discover_s), "s"},
               {"discover_t1_s", Median(discover_t1_s), "s"},
               {"setup_s", Median(setup_s), "s"},
               {"translate_rows_per_s",
                static_cast<double>(bulk_rows) / Median(translate_s),
                "rows/s"},
               {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
                "MiB"},
               {"coverage", Median(coverage), "fraction"}});
  return 0;
}

/// Per-layer medians of the traced replays at one thread count, each paired
/// with the untraced discovery run next to it.
struct TracedSeries {
  std::vector<TracedDiscovery> runs;
  std::vector<double> untraced_ms;

  double MedianOf(double TracedDiscovery::*field) const {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r.*field);
    return Median(v);
  }
  /// Median over pairs of traced `part` ÷ untraced wall time: pairing
  /// cancels the drift between pairs that a ratio of medians would keep.
  double MedianRatio(double (*part)(const TracedDiscovery&)) const {
    std::vector<double> v;
    for (size_t i = 0; i < runs.size(); ++i) {
      v.push_back(part(runs[i]) / untraced_ms[i]);
    }
    return Median(v);
  }
};

/// One untraced discovery and its traced replay, which must reach the same
/// formula and counts. Which of the two goes first alternates (`traced_first`)
/// so that neither always pays for following an ingest or a change of thread
/// count.
bool TraceStep(const Inputs& in, const Workload& workload, size_t threads,
               bool traced_first, Expectation* expect, TracedSeries* series,
               Tally* tally) {
  const std::string where =
      "traced replay at t=" + std::to_string(threads) + ": ";
  Result<TracedDiscovery> traced = Status::Internal("not run");
  if (traced_first) traced = DiscoverTraced(in, workload, threads);
  auto untraced = Discover(in, workload, threads, expect, tally);
  if (!untraced.has_value()) return false;
  if (!traced_first) traced = DiscoverTraced(in, workload, threads);
  if (!traced.ok()) {
    tally->Fail(where + traced.status().ToString());
    return false;
  }
  if (traced->result.rendered != untraced->rendered) {
    tally->Fail(where + "formula " + traced->result.rendered +
                " differs from the untraced " + untraced->rendered);
    return false;
  }
  if (!CheckDiscovery(traced->result, in.source, threads, expect, tally)) {
    return false;
  }
  series->untraced_ms.push_back(untraced->seconds * 1000.0);
  series->runs.push_back(std::move(traced).value());
  return true;
}

int RunTraced(const Args& args, const Workload& workload, const Meta& meta,
              size_t threads) {
  Tally tally;
  SetupSampler setup(args, workload, meta);
  if (!setup.Block(&tally)) {
    PrintResult(false, tally, {});
    return 1;
  }
  Expectation expect{meta.formulas, std::nullopt, std::nullopt, {}};
  std::optional<Translator> translator;
  std::vector<double> separator_ms, translate_s;
  TracedSeries tn, t1;

  // The same loop shape as the untraced run: the N-thread and 1-thread
  // discoveries, each paired with its traced replay, then translation passes.
  const auto window = Clock::now();
  while (SecondsSince(window) < args.seconds ||
         tn.runs.size() < args.min_reps) {
    if (!MaybeSetUpInLoop(SecondsSince(window), workload, threads, &setup,
                          &expect, &tally)) {
      break;
    }
    const Inputs& in = setup.inputs();
    // Separator detection is also probed on its own, on every workload;
    // parts-bulk pays it again inside TranslationSearch construction.
    const auto sep_start = Clock::now();
    const auto separator =
        core::SeparatorDetector::Detect(in.target, in.target_column);
    separator_ms.push_back(SecondsSince(sep_start) * 1000.0);
    if (workload.search.detect_separators && !separator.has_value()) {
      tally.Fail("separator detection found no template");
      break;
    }

    const bool traced_first = tn.runs.size() % 2 == 1;
    if (!TraceStep(in, workload, threads, traced_first, &expect, &tn,
                   &tally) ||
        !TraceStep(in, workload, 1, traced_first, &expect, &t1, &tally)) {
      break;
    }
    if (!translator.has_value()) {
      auto made = MakeTranslator(tn.runs.front().result.formula,
                                 in.bulk, threads);
      if (!made.ok()) {
        tally.Fail("compile: " + made.status().ToString());
        break;
      }
      translator.emplace(std::move(made).value());
    }
    TranslatePasses(*translator, in.bulk, &translate_s, &tally);
  }
  if (tally.failed() != 0 || tn.runs.empty() || t1.runs.empty()) {
    PrintResult(false, tally, {});
    return 1;
  }

  // Storage as the loop left it, before the last set-up block replaces it.
  const Inputs& in = setup.inputs();
  uint64_t resident = 0;
  uint64_t spilled = 0;
  for (const relational::Table* t : {&in.source, &in.target, &in.bulk}) {
    const relational::TableStats stats = t->Stats();
    resident += stats.resident_bytes;
    spilled += stats.spilled_bytes;
  }
  const uint64_t input_bytes = in.input_bytes;
  const size_t bulk_rows = in.bulk.num_rows();
  if (!setup.Block(&tally)) {
    PrintResult(false, tally, {});
    return 1;
  }
  const std::vector<double>& setup_s = setup.times();

  const TracedDiscovery& last = tn.runs.back();
  const Counts& counts = last.result.counts;
  const auto layer_ms = [](const TracedDiscovery& r) { return r.layer_ms(); };
  const auto wall_ms = [](const TracedDiscovery& r) { return r.wall_ms; };
  const double layer_sum_frac = tn.MedianRatio(layer_ms);
  const double layer_sum_t1_frac = t1.MedianRatio(layer_ms);
  for (double frac : {layer_sum_frac, layer_sum_t1_frac}) {
    if (frac < 0.95 || frac > 1.05) {
      std::printf("# warning: trace.layer_sum_frac %.3f outside 0.95-1.05\n",
                  frac);
    }
  }
  PrintResult(
      true, tally,
      {{"relational.csv_ingest_ms", Median(setup_s) * 1000.0, "ms"},
       {"relational.resident_mb", static_cast<double>(resident) / kMiB, "MiB"},
       {"relational.spilled_mb", static_cast<double>(spilled) / kMiB, "MiB"},
       {"relational.bytes_per_input_byte",
        static_cast<double>(resident + spilled) /
            static_cast<double>(std::max<uint64_t>(1, input_bytes)),
        "B/B"},
       {"relational.target_index_ms", tn.MedianOf(&TracedDiscovery::index_ms),
        "ms"},
       {"relational.target_index_mb", last.target_index_mb, "MiB"},
       {"core.separator_ms", Median(separator_ms), "ms"},
       {"core.step1_ms", tn.MedianOf(&TracedDiscovery::step1_ms), "ms"},
       {"core.step1_t1_ms", t1.MedianOf(&TracedDiscovery::step1_ms), "ms"},
       {"core.step2_ms", tn.MedianOf(&TracedDiscovery::step2_ms), "ms"},
       {"core.step2_t1_ms", t1.MedianOf(&TracedDiscovery::step2_ms), "ms"},
       {"core.refine_ms", tn.MedianOf(&TracedDiscovery::refine_ms), "ms"},
       {"core.refine_t1_ms", t1.MedianOf(&TracedDiscovery::refine_ms), "ms"},
       {"core.refine_iters", static_cast<double>(last.refine_iters), "count"},
       {"core.coverage_ms", tn.MedianOf(&TracedDiscovery::coverage_ms), "ms"},
       {"core.pairs_scored", static_cast<double>(counts.pairs_scored), "count"},
       {"core.recipes_built", static_cast<double>(counts.recipes_built),
        "count"},
       {"core.formulas_considered",
        static_cast<double>(counts.formulas_considered), "count"},
       {"core.postings_scanned", static_cast<double>(counts.postings_scanned),
        "count"},
       {"core.vote_yield",
        static_cast<double>(last.support) /
            static_cast<double>(std::max<size_t>(1, last.candidates)),
        "ratio"},
       {"core.attempts", static_cast<double>(last.attempts), "count"},
       {"vm.translate_ms", Median(translate_s) * 1000.0, "ms"},
       {"vm.covered_frac",
        static_cast<double>(translator->reference.rows()) /
            static_cast<double>(std::max<size_t>(1, bulk_rows)),
        "fraction"},
       {"trace.layer_sum_frac", layer_sum_frac, "fraction"},
       {"trace.layer_sum_t1_frac", layer_sum_t1_frac, "fraction"},
       {"trace.overhead_frac",
        tn.MedianRatio(wall_ms) - 1.0,
        "fraction"}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload <name> --data <dir> "
                 "--seconds <s> --trace <0|1> [--seed <n>] [--commit <id>] "
                 "[--min-reps <n>]\n");
    return 2;
  }
  if (const char* why = UnfitBuild()) {
    std::fprintf(stderr, "perfbench: refusing to record from this build: %s\n",
                 why);
    return 3;
  }
  const auto workload = MakeWorkload(args->workload);
  const auto meta = ReadMeta(args->data);
  if (!workload.has_value() || !meta.has_value()) {
    std::fprintf(stderr, "perfbench: unknown workload or unreadable %s\n",
                 args->data.c_str());
    return 2;
  }
  const size_t nproc = UsableCpus();
  const size_t threads = std::min<size_t>(4, nproc);
  std::printf("# provenance {\"workload\": \"%s\", \"seed\": %llu, "
              "\"threads\": %zu, \"nproc\": %zu, \"simd\": \"%s\", "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"commit\": \"%s\"}\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(args->seed), threads, nproc,
              text::simd::LevelName(text::simd::ActiveLevel()),
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_ID, args->commit.c_str());
  return args->trace ? RunTraced(*args, *workload, *meta, threads)
                     : RunEndToEnd(*args, *workload, *meta, threads);
}
