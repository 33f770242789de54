// Writes one workload's inputs as CSV files, from a seed, so that the
// measured process (perfbench_run) only ever sees CSV bytes:
//
//   perfbench_gen --workload <citeseer|fullname|parts-bulk> --seed <n>
//                 --rows <n> --bulk-rows <n> --out <dir>
//
// <dir> receives source.csv and target.csv (the discovery pair), bulk.csv (a
// second, larger draw of the source schema, which the discovered formula is
// replayed over) and meta.txt: the target column name on the first line, then one accepted
// rendering of datagen's expected formula per line. Files are written under
// <dir>.tmp and renamed into place, so an interrupted run leaves no cache
// entry behind.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "datagen/datasets.h"
#include "relational/csv.h"

using namespace mcsm;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_gen --workload <citeseer|fullname|"
               "parts-bulk> --seed <n> --rows <n> --bulk-rows <n> "
               "--out <dir>\n");
  return 2;
}

bool WriteCsv(const relational::Table& table, const std::string& path) {
  Status st = relational::WriteCsvFile(table, path);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench_gen: %s\n", st.ToString().c_str());
    return false;
  }
  return true;
}

bool WritePair(const datagen::Dataset& data, const std::string& dir) {
  if (!WriteCsv(data.source, dir + "/source.csv") ||
      !WriteCsv(data.target, dir + "/target.csv")) {
    return false;
  }
  std::FILE* f = std::fopen((dir + "/meta.txt").c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n",
               data.target.schema().column(data.target_column).name.c_str());
  for (const std::string& formula : data.expected_formulas) {
    std::fprintf(f, "%s\n", formula.c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out;
  uint64_t seed = 0;
  size_t rows = 0;
  size_t bulk_rows = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--rows") == 0) {
      rows = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--bulk-rows") == 0) {
      bulk_rows = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--out") == 0) {
      out = value;
    } else {
      return Usage();
    }
  }
  if (workload.empty() || out.empty() || rows == 0 || bulk_rows == 0) {
    return Usage();
  }
  const uint64_t bulk_seed = seed ^ 0x9E3779B97F4A7C15ull;

  const std::string tmp = out + ".tmp";
  std::error_code ec;
  std::filesystem::remove_all(tmp, ec);
  std::filesystem::create_directories(tmp, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench_gen: cannot create %s\n", tmp.c_str());
    return 1;
  }

  const std::string bulk_path = tmp + "/bulk.csv";
  bool ok = false;
  if (workload == "citeseer") {
    datagen::CitationOptions o;
    o.rows = rows;
    o.seed = seed;
    ok = WritePair(datagen::MakeCitationDataset(o), tmp);
    o.rows = bulk_rows;
    o.seed = bulk_seed;
    ok = ok && WriteCsv(datagen::MakeCitationDataset(o).source, bulk_path);
  } else if (workload == "fullname") {
    datagen::MergedNamesOptions o;
    o.rows = rows;
    o.distinct_names = std::max<size_t>(100, rows / 10);
    o.seed = seed;
    ok = WritePair(datagen::MakeMergedNamesDataset(o), tmp);
    o.rows = bulk_rows;
    o.distinct_names = std::max<size_t>(100, bulk_rows / 10);
    o.seed = bulk_seed;
    ok = ok && WriteCsv(datagen::MakeMergedNamesDataset(o).source, bulk_path);
  } else if (workload == "parts-bulk") {
    datagen::PartNumberOptions o;
    o.rows = rows;
    o.seed = seed;
    ok = WritePair(datagen::MakePartNumberDataset(o), tmp);
    o.rows = bulk_rows;
    o.seed = bulk_seed;
    ok = ok && WriteCsv(datagen::MakePartNumberDataset(o).source, bulk_path);
  } else {
    return Usage();
  }
  if (!ok) return 1;

  std::filesystem::remove_all(out, ec);
  std::filesystem::rename(tmp, out, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench_gen: cannot rename %s\n", tmp.c_str());
    return 1;
  }
  return 0;
}
