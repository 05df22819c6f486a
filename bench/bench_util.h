// Shared helpers for the experiment harness: timers, table printing, and
// standard workload construction. Each bench binary regenerates one
// experiment of the paper's evaluation (see DESIGN.md §3 and
// EXPERIMENTS.md for the mapping).
#ifndef MAYBMS_BENCH_BENCH_UTIL_H_
#define MAYBMS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/builder.h"
#include "core/wsd.h"
#include "gen/census.h"
#include "gen/noise.h"

namespace maybms {
namespace bench {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Plain-text table writer for paper-style result tables.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    std::string sep = "  ";
    std::string line;
    for (size_t c = 0; c < headers_.size(); ++c) {
      line += PadRight(headers_[c], width[c]) + sep;
    }
    printf("%s\n", line.c_str());
    printf("%s\n", std::string(line.size(), '-').c_str());
    for (const auto& row : rows_) {
      std::string out;
      for (size_t c = 0; c < row.size(); ++c) {
        out += PadRight(row[c], width[c]) + sep;
      }
      printf("%s\n", out.c_str());
    }
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Collects benchmark results and writes a machine-readable
/// BENCH_<name>.json next to the binary's working directory:
///
///   [{"name": "...", "ns_per_op": 123.4, "speedup": 2.5}, ...]
///
/// `speedup` is relative to whatever baseline the bench chose (1.0 for
/// the baseline itself, null when no baseline applies), so the perf
/// trajectory is trackable across PRs by diffing the files.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { Write(); }

  /// speedup <= 0 means "no baseline"; emitted as null.
  void Add(const std::string& name, double ns_per_op, double speedup = 0.0) {
    entries_.push_back({name, ns_per_op, speedup, false});
  }

  /// A deterministic work counter, not a time: written with "exact":
  /// true, and scripts/bench_compare.py fails on any change from the
  /// baseline, in either direction.
  void AddCount(const std::string& name, double count) {
    entries_.push_back({name, count, 0.0, true});
  }

  void Write() {
    if (written_) return;
    written_ = true;
    std::string path = "BENCH_" + name_ + ".json";
    FILE* f = fopen(path.c_str(), "w");
    if (!f) return;
    fprintf(f, "[\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::string escaped;
      for (char c : e.name) {
        if (c == '"' || c == '\\') escaped += '\\';
        escaped += c;
      }
      fprintf(f, "  {\"name\": \"%s\", \"ns_per_op\": %.1f, \"speedup\": ",
              escaped.c_str(), e.ns_per_op);
      if (e.speedup > 0.0) {
        fprintf(f, "%.3f", e.speedup);
      } else {
        fprintf(f, "null");
      }
      fprintf(f, e.exact ? ", \"exact\": true}" : "}");
      fprintf(f, "%s\n", i + 1 < entries_.size() ? "," : "");
    }
    fprintf(f, "]\n");
    fclose(f);
    printf("wrote %s (%zu entries)\n", path.c_str(), entries_.size());
  }

 private:
  struct Entry {
    std::string name;
    double ns_per_op;
    double speedup;
    bool exact;
  };
  std::string name_;
  std::vector<Entry> entries_;
  bool written_ = false;
};

/// Scale factor from the environment (MAYBMS_BENCH_SCALE, default 1.0):
/// benches multiply their record counts by it.
inline double BenchScale() {
  const char* env = getenv("MAYBMS_BENCH_SCALE");
  if (!env) return 1.0;
  double v = strtod(env, nullptr);
  return v > 0 ? v : 1.0;
}

inline size_t Scaled(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * BenchScale());
}

/// Builds the standard bench database: census + states as a WSD with the
/// given or-set noise fraction. Returns the flat (certain) byte size via
/// `flat_bytes`.
inline WsdDb BuildNoisyCensus(size_t records, double noise_fraction,
                              uint64_t seed, uint64_t* flat_bytes = nullptr,
                              NoiseStats* stats_out = nullptr,
                              size_t alternatives_max = 4,
                              double wild_fraction = 0.15) {
  Catalog cat;
  Status st = cat.Create(GenerateCensus({records, seed}));
  MAYBMS_CHECK(st.ok()) << st.ToString();
  st = cat.Create(GenerateStates());
  MAYBMS_CHECK(st.ok()) << st.ToString();
  if (flat_bytes) *flat_bytes = cat.Get("census").value()->SerializedSize();
  WsdDb db = FromCatalog(cat);
  if (noise_fraction > 0) {
    NoiseOptions opt;
    opt.cell_fraction = noise_fraction;
    opt.max_alternatives = alternatives_max;
    opt.wild_fraction = wild_fraction;
    opt.seed = seed + 1;
    auto stats = ApplyOrSetNoise(&db, "census", opt);
    MAYBMS_CHECK(stats.ok()) << stats.status().ToString();
    if (stats_out) *stats_out = *stats;
  }
  return db;
}

}  // namespace bench
}  // namespace maybms

#endif  // MAYBMS_BENCH_BENCH_UTIL_H_
