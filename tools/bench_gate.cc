// Perf regression gate over fairmove.bench.v1 documents (the ctest
// `perfgate` label). Compares a fresh bench_perf_microbench run against the
// committed BENCH_perf.json baseline and fails — with a diff table naming
// every offending benchmark — when any gated counter regresses past the
// tolerance.
//
// Usage:
//   bench_gate --baseline=BENCH_perf.json --bench=path/to/bench_perf_microbench
//              [--tolerance=1.5] [--filter=REGEX] [--fresh-out=PATH]
//   bench_gate --baseline=BENCH_perf.json --fresh=run.json [--tolerance=1.5]
//
// Modes: `--bench` spawns the benchmark binary with a filter restricted to
// exactly the baseline's benchmark names, three repetitions each, and gates
// on its JSON output; `--fresh` gates a pre-made document (CI artifact,
// cross-machine diff). A document holding several runs of one benchmark
// (the baseline too, if it was written with --benchmark_repetitions)
// counts the fastest of them.
//
// Every benchmark is gated on cpu_ns_per_iter (the document's
// `gate_metric`: wall time picks up other-process noise on a shared box, cpu
// time does not). A benchmark that runs on the thread pool carries a `lanes`
// counter and measures the whole process's cpu time, so its cpu row counts
// the workers' work too and compares like for like at any lane count. Only
// real time shows the waits of a hand-off, so such a benchmark is gated on
// real_ns_per_iter too — when the fresh run has the baseline's lane and
// core counts; otherwise the table says it was skipped.
// `--tolerance=T` allows fresh <= baseline * (1 + T); the default T = 1.5
// is deliberately generous — the gate exists to catch step-change
// regressions (a vector loop falling back to scalar, an allocation slipped
// into a hot path, an accidental O(n^2)), not 10% jitter on a noisy CI box.
// A benchmark present in the baseline but missing from the fresh run fails
// the gate: silently shrinking coverage must be loud. Both documents' kernel
// table (the `machine` block's simd, nn/simd.h) is printed, with a note when
// they differ: the NN timings then compare two ISAs, not two builds.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fairmove/io/atomic_file.h"
#include "fairmove/obs/json_parse.h"

namespace fairmove {
namespace {

constexpr char kSchema[] = "fairmove.bench.v1";
constexpr double kDefaultTolerance = 1.5;
/// Runs of each benchmark in run mode; the fastest counts.
constexpr int kRepetitions = 3;

struct BenchEntry {
  std::string name;
  double cpu_ns_per_iter = 0.0;
  double real_ns_per_iter = 0.0;
  /// The `lanes` counter of a benchmark that runs on the pool, else -1.
  double lanes = -1.0;
};

struct BenchDocument {
  /// The `machine` block's kernel table, or "unknown" for a document
  /// written before the block existed.
  std::string simd = "unknown";
  /// The `machine` block's online core count, or -1 if it has none.
  double nproc = -1.0;
  std::vector<BenchEntry> entries;
};

struct Options {
  std::string baseline_path;
  std::string fresh_path;      // compare mode
  std::string bench_binary;    // run mode
  std::string filter;          // optional override for run mode
  std::string fresh_out;       // where run mode writes the fresh JSON
  double tolerance = kDefaultTolerance;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --baseline=BENCH_perf.json"
      " (--bench=BINARY | --fresh=RUN.json)"
      " [--tolerance=%.1f] [--filter=REGEX] [--fresh-out=PATH]\n",
      argv0, kDefaultTolerance);
  return 2;
}

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

StatusOr<BenchDocument> LoadDocument(const std::string& path) {
  FM_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  StatusOr<JsonValue> doc_or = ParseJson(text);
  if (!doc_or.ok()) {
    return Status::InvalidArgument(path + ": " + doc_or.status().message());
  }
  const JsonValue& doc = doc_or.value();
  if (doc.StringOr("schema", "") != kSchema) {
    return Status::InvalidArgument(path + ": not a " + kSchema +
                                   " document");
  }
  const JsonValue* benchmarks = doc.Find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    return Status::InvalidArgument(path + ": missing benchmarks array");
  }
  BenchDocument loaded;
  if (const JsonValue* machine = doc.Find("machine"); machine != nullptr) {
    loaded.simd = machine->StringOr("simd", loaded.simd);
    loaded.nproc = machine->NumberOr("nproc", loaded.nproc);
  }
  std::vector<BenchEntry>& entries = loaded.entries;
  for (const JsonValue& item : benchmarks->items) {
    BenchEntry entry;
    entry.name = item.StringOr("name", "");
    entry.cpu_ns_per_iter = item.NumberOr("cpu_ns_per_iter", -1.0);
    entry.real_ns_per_iter = item.NumberOr("real_ns_per_iter", -1.0);
    if (entry.name.empty() || entry.cpu_ns_per_iter < 0.0 ||
        entry.real_ns_per_iter < 0.0) {
      return Status::InvalidArgument(
          path + ": benchmark entry without name/cpu_ns_per_iter/"
                 "real_ns_per_iter");
    }
    if (const JsonValue* counters = item.Find("counters");
        counters != nullptr) {
      entry.lanes = counters->NumberOr("lanes", entry.lanes);
    }
    // Repetitions of one benchmark count by their fastest run, in cpu and
    // in real time alike: the slow ones measure the neighbours.
    auto seen = std::find_if(entries.begin(), entries.end(),
                             [&](const BenchEntry& e) {
                               return e.name == entry.name;
                             });
    if (seen != entries.end()) {
      seen->cpu_ns_per_iter =
          std::min(seen->cpu_ns_per_iter, entry.cpu_ns_per_iter);
      seen->real_ns_per_iter =
          std::min(seen->real_ns_per_iter, entry.real_ns_per_iter);
      continue;
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    return Status::InvalidArgument(path + ": no benchmark entries");
  }
  return loaded;
}

const BenchEntry* FindEntry(const std::vector<BenchEntry>& entries,
                            const std::string& name) {
  for (const BenchEntry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

/// `^(name1|name2|...)$` over the baseline names, so the fresh run measures
/// exactly the gated set and nothing slower. Benchmark names here contain
/// no regex metacharacters beyond '/' (which is literal in RE2/std regex);
/// anything exotic can use --filter explicitly.
std::string FilterFromBaseline(const std::vector<BenchEntry>& baseline) {
  std::string filter = "^(";
  for (size_t i = 0; i < baseline.size(); ++i) {
    if (i > 0) filter += '|';
    filter += baseline[i].name;
  }
  filter += ")$";
  return filter;
}

int RunGate(const Options& opt) {
  StatusOr<BenchDocument> baseline_or = LoadDocument(opt.baseline_path);
  if (!baseline_or.ok()) {
    std::fprintf(stderr, "bench_gate: baseline: %s\n",
                 baseline_or.status().message().c_str());
    return 2;
  }
  const std::vector<BenchEntry>& baseline = baseline_or->entries;

  std::string fresh_path = opt.fresh_path;
  if (fresh_path.empty()) {
    fresh_path = opt.fresh_out.empty()
                     ? "/tmp/bench_gate_fresh_" + std::to_string(getpid()) +
                           ".json"
                     : opt.fresh_out;
    const std::string filter =
        opt.filter.empty() ? FilterFromBaseline(baseline) : opt.filter;
    const std::string cmd = "\"" + opt.bench_binary +
                            "\" \"--benchmark_filter=" + filter +
                            "\" --benchmark_repetitions=" +
                            std::to_string(kRepetitions) + " \"--json=" +
                            fresh_path + "\"";
    std::fprintf(stderr, "bench_gate: running %s\n", cmd.c_str());
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "bench_gate: bench run failed (exit %d)\n", rc);
      return 2;
    }
  }
  StatusOr<BenchDocument> fresh_or = LoadDocument(fresh_path);
  if (!fresh_or.ok()) {
    std::fprintf(stderr, "bench_gate: fresh: %s\n",
                 fresh_or.status().message().c_str());
    return 2;
  }
  const std::vector<BenchEntry>& fresh = fresh_or->entries;

  std::printf("kernel table: baseline %s, current %s\n",
              baseline_or->simd.c_str(), fresh_or->simd.c_str());
  if (baseline_or->simd != fresh_or->simd) {
    std::printf("note: the kernel tables differ, so the NN benchmarks compare "
                "two ISAs, not two builds.\n");
  }
  // A pool's real time depends on how many cores its lanes share.
  const bool same_cores = baseline_or->nproc == fresh_or->nproc;
  if (!same_cores) {
    std::printf("note: baseline ran on %g cores, this run on %g, so no real "
                "time is gated.\n",
                baseline_or->nproc, fresh_or->nproc);
  }

  // The diff table, baseline order, one row per gated metric. ratio > 1 is
  // a slowdown.
  std::vector<std::string> regressed;
  std::printf("%-46s %5s %14s %14s %8s  %s\n", "benchmark", "time",
              "baseline(ns)", "fresh(ns)", "ratio", "verdict");
  const auto gate = [&](const std::string& name, const char* metric,
                        double base_ns, double fresh_ns) {
    const bool gateable = base_ns > 0.0;
    const double ratio = gateable ? fresh_ns / base_ns : 1.0;
    const bool ok = !gateable || ratio <= 1.0 + opt.tolerance;
    std::printf("%-46s %5s %14.1f %14.1f %7.2fx  %s\n", name.c_str(), metric,
                base_ns, fresh_ns, ratio, ok ? "ok" : "REGRESSED");
    if (!ok) {
      char detail[200];
      std::snprintf(detail, sizeof(detail),
                    "%s (%.1f -> %.1f %s ns/iter, %.2fx > %.2fx allowed)",
                    name.c_str(), base_ns, fresh_ns, metric, ratio,
                    1.0 + opt.tolerance);
      regressed.push_back(detail);
    }
  };
  for (const BenchEntry& base : baseline) {
    const BenchEntry* now = FindEntry(fresh, base.name);
    if (now == nullptr) {
      std::printf("%-46s %5s %14.1f %14s %8s  MISSING\n", base.name.c_str(),
                  "cpu", base.cpu_ns_per_iter, "-", "-");
      regressed.push_back(base.name + " (missing from fresh run)");
      continue;
    }
    gate(base.name, "cpu", base.cpu_ns_per_iter, now->cpu_ns_per_iter);
    if (base.lanes < 0.0) continue;  // not on the pool: cpu tells it all
    if (!same_cores || now->lanes != base.lanes) {
      std::printf("%-46s %5s %14.1f %14.1f %8s  skipped: %g lanes on %g "
                  "cores, baseline %g on %g\n",
                  base.name.c_str(), "real", base.real_ns_per_iter,
                  now->real_ns_per_iter, "-", now->lanes, fresh_or->nproc,
                  base.lanes, baseline_or->nproc);
      continue;
    }
    gate(base.name, "real", base.real_ns_per_iter, now->real_ns_per_iter);
  }
  if (!regressed.empty()) {
    std::printf("\nPERF GATE FAILED (%zu regressions over %zu gated "
                "benchmarks):\n",
                regressed.size(), baseline.size());
    for (const std::string& r : regressed) std::printf("  - %s\n", r.c_str());
    std::printf("If this slowdown is intended, refresh the baseline (see"
                " README \"Performance tracking\").\n");
    return 1;
  }
  std::printf("\nPERF GATE OK: %zu benchmarks within %.2fx of baseline.\n",
              baseline.size(), 1.0 + opt.tolerance);
  return 0;
}

}  // namespace
}  // namespace fairmove

int main(int argc, char** argv) {
  fairmove::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (fairmove::ParseFlag(arg, "baseline", &opt.baseline_path) ||
        fairmove::ParseFlag(arg, "fresh", &opt.fresh_path) ||
        fairmove::ParseFlag(arg, "bench", &opt.bench_binary) ||
        fairmove::ParseFlag(arg, "filter", &opt.filter) ||
        fairmove::ParseFlag(arg, "fresh-out", &opt.fresh_out)) {
      continue;
    }
    if (fairmove::ParseFlag(arg, "tolerance", &value)) {
      char* end = nullptr;
      opt.tolerance = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || opt.tolerance < 0.0) {
        std::fprintf(stderr, "bench_gate: bad --tolerance value '%s'\n",
                     value.c_str());
        return 2;
      }
      continue;
    }
    std::fprintf(stderr, "bench_gate: unknown argument '%s'\n", arg.c_str());
    return fairmove::Usage(argv[0]);
  }
  if (opt.baseline_path.empty() ||
      (opt.fresh_path.empty() == opt.bench_binary.empty())) {
    return fairmove::Usage(argv[0]);
  }
  return fairmove::RunGate(opt);
}
