// Validates a FAIRMOVE_TELEMETRY output directory: the run manifest must be
// one well-formed JSON object carrying every schema field, each JSONL stream
// must parse line-by-line with its row-identifying keys present, and the
// registry snapshot (plus the span tree, when profiling was on) must be
// valid JSON. Prints a per-file summary and exits non-zero on the first
// malformed artefact — the CI smoke step behind telemetry runs.
//
// Also validates the live-observability artefacts:
//   obs_check --export <dir>    FAIRMOVE_METRICS_EXPORT output: export.json
//                               schema + freshness fields, windows.jsonl
//                               per-site monotonic epoch ids, and the
//                               flight.fmfr snapshot's header + CRC
//   obs_check --flight <file>   one FMFR1 flight dump (header, CRC, bounds)
//   obs_check --trace <file>    Chrome trace-event JSON: B/E must balance
//                               per (pid, tid) — unbalanced traces fail
// A plain <telemetry-dir> run picks up any of those artefacts it finds in
// the directory too.
//
// Usage: obs_check [--export|--flight|--trace] <path>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "fairmove/common/macros.h"
#include "fairmove/common/status.h"
#include "fairmove/io/atomic_file.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/json_parse.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/trace.h"

namespace fairmove {
namespace {

/// Manifest (or any standalone JSON-object artefact): parse + check keys.
Status CheckJsonObjectFile(const std::string& path,
                           const std::vector<std::string>& required_keys) {
  FM_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  FM_ASSIGN_OR_RETURN(const std::vector<std::string> keys,
                      JsonObjectKeys(text));
  for (const std::string& required : required_keys) {
    bool found = false;
    for (const std::string& key : keys) {
      if (key == required) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(path + ": missing key '" + required +
                                     "'");
    }
  }
  std::printf("  ok  %-16s %zu top-level keys\n",
              std::filesystem::path(path).filename().c_str(), keys.size());
  return Status::OK();
}

Status CheckStream(const std::string& path,
                   const std::vector<std::string>& required_keys) {
  FM_ASSIGN_OR_RETURN(const int64_t rows,
                      ValidateJsonlFile(path, required_keys));
  std::printf("  ok  %-16s %lld row(s)\n",
              std::filesystem::path(path).filename().c_str(),
              static_cast<long long>(rows));
  return Status::OK();
}

/// Sharded-stepping telemetry contract: each simulated slot emits one
/// kind="shard" row per shard (ids ascending from 0) followed by the
/// kind="slot" fleet row, and the shard rows' phase counts must sum to the
/// fleet row's exactly — the deterministic merge the simulator promises at
/// any FAIRMOVE_THREADS.
Status CheckShardComposition(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  const char* kPhases[] = {"cruising",  "serving",  "to_station",
                           "queuing",   "charging", "broken_down"};
  int64_t next_shard = 0;
  int64_t shard_sums[6] = {0, 0, 0, 0, 0, 0};
  int64_t slots_checked = 0;
  int64_t shard_rows = 0;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    FM_ASSIGN_OR_RETURN(const JsonValue row, ParseJson(line));
    const std::string kind = row.StringOr("kind", "");
    if (kind == "shard") {
      const int64_t shard =
          static_cast<int64_t>(row.NumberOr("shard", -1.0));
      if (shard != next_shard) {
        return Status::InvalidArgument(
            path + ": line " + std::to_string(line_no) + ": shard id " +
            std::to_string(shard) + ", expected " +
            std::to_string(next_shard) + " (ids must ascend from 0)");
      }
      ++next_shard;
      ++shard_rows;
      for (int p = 0; p < 6; ++p) {
        shard_sums[p] += static_cast<int64_t>(row.NumberOr(kPhases[p], 0.0));
      }
    } else if (kind == "slot") {
      // A slot row without preceding shard rows is fine (shard telemetry
      // may be off); with them, the merge must be exact.
      if (next_shard > 0) {
        for (int p = 0; p < 6; ++p) {
          const int64_t fleet =
              static_cast<int64_t>(row.NumberOr(kPhases[p], 0.0));
          if (fleet != shard_sums[p]) {
            return Status::InvalidArgument(
                path + ": line " + std::to_string(line_no) + ": slot " +
                std::to_string(static_cast<int64_t>(
                    row.NumberOr("slot", -1.0))) +
                " field '" + kPhases[p] + "': shard rows sum to " +
                std::to_string(shard_sums[p]) + " but the fleet row says " +
                std::to_string(fleet));
          }
        }
        ++slots_checked;
      }
      next_shard = 0;
      for (int64_t& s : shard_sums) s = 0;
    }
  }
  if (next_shard != 0) {
    return Status::InvalidArgument(
        path + ": " + std::to_string(next_shard) +
        " trailing shard row(s) with no closing slot row");
  }
  std::printf("  ok  %-16s %lld slot(s) composed from %lld shard row(s)\n",
              std::filesystem::path(path).filename().c_str(),
              static_cast<long long>(slots_checked),
              static_cast<long long>(shard_rows));
  return Status::OK();
}

/// Racing telemetry contract (core/racing.h EmitRacingTelemetry): each race
/// emits one kind="racing_cell" row per arm, arm ids ascending from 0 per
/// race label, carrying the full per-cell payload. A cell either survived
/// (elimination fields -1) or records the round and the race-timeline slot
/// it was eliminated at; the race-level budget fields must be consistent on
/// every row.
Status CheckRacingCells(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  // race label -> next expected arm id (telemetry holds few races; linear
  // scan beats dragging in a map for the tool).
  std::vector<std::pair<std::string, int64_t>> next_arm;
  int64_t rows = 0;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    FM_ASSIGN_OR_RETURN(const JsonValue row, ParseJson(line));
    if (row.StringOr("kind", "") != "racing_cell") continue;
    ++rows;
    const std::string where = path + ": line " + std::to_string(line_no);
    for (const char* key :
         {"race", "method", "arm", "replicas", "survived",
          "eliminated_in_round", "elimination_slot", "mean_reward",
          "half_width", "bound", "delta", "replicas_spent", "fixed_budget"}) {
      if (row.Find(key) == nullptr) {
        return Status::InvalidArgument(where + ": racing_cell row missing '" +
                                       std::string(key) + "'");
      }
    }
    const std::string race = row.StringOr("race", "");
    const int64_t arm = static_cast<int64_t>(row.NumberOr("arm", -1.0));
    int64_t expected = 0;
    std::pair<std::string, int64_t>* entry = nullptr;
    for (auto& e : next_arm) {
      if (e.first == race) entry = &e;
    }
    if (entry == nullptr) {
      next_arm.emplace_back(race, 0);
      entry = &next_arm.back();
    }
    expected = entry->second;
    if (arm != expected) {
      return Status::InvalidArgument(
          where + ": race '" + race + "' arm id " + std::to_string(arm) +
          ", expected " + std::to_string(expected) +
          " (arm ids must ascend from 0 per race)");
    }
    entry->second = arm + 1;
    const JsonValue* survived = row.Find("survived");
    if (survived == nullptr || !survived->is_bool()) {
      return Status::InvalidArgument(where + ": 'survived' must be a bool");
    }
    const int64_t round =
        static_cast<int64_t>(row.NumberOr("eliminated_in_round", -2.0));
    const int64_t slot =
        static_cast<int64_t>(row.NumberOr("elimination_slot", -2.0));
    if (survived->bool_value) {
      if (round != -1 || slot != -1) {
        return Status::InvalidArgument(
            where + ": surviving cell carries elimination round " +
            std::to_string(round) + " / slot " + std::to_string(slot));
      }
    } else if (round < 0 || slot < 1) {
      return Status::InvalidArgument(
          where + ": eliminated cell has round " + std::to_string(round) +
          " / slot " + std::to_string(slot) +
          " (round must be >= 0, slot >= 1)");
    }
    const int64_t replicas =
        static_cast<int64_t>(row.NumberOr("replicas", -1.0));
    const int64_t spent =
        static_cast<int64_t>(row.NumberOr("replicas_spent", -1.0));
    const int64_t budget =
        static_cast<int64_t>(row.NumberOr("fixed_budget", -1.0));
    if (replicas < 0 || spent < replicas || budget < spent) {
      return Status::InvalidArgument(
          where + ": inconsistent budget: replicas " +
          std::to_string(replicas) + " <= replicas_spent " +
          std::to_string(spent) + " <= fixed_budget " +
          std::to_string(budget) + " violated");
    }
    const std::string bound = row.StringOr("bound", "");
    if (bound != "gaussian" && bound != "hoeffding" && bound != "bernstein") {
      return Status::InvalidArgument(where + ": unknown CI bound '" + bound +
                                     "'");
    }
    const double delta = row.NumberOr("delta", -1.0);
    if (delta <= 0.0 || delta >= 1.0) {
      return Status::InvalidArgument(where + ": delta " +
                                     std::to_string(delta) +
                                     " outside (0, 1)");
    }
  }
  std::printf("  ok  %-16s %lld racing_cell row(s) across %zu race(s)\n",
              std::filesystem::path(path).filename().c_str(),
              static_cast<long long>(rows), next_arm.size());
  return Status::OK();
}

/// FMFR1 flight dump: ReadFlightDumpFile already rejects bad magic, version,
/// truncated sections, and CRC mismatches; here we just surface the summary.
Status CheckFlightDump(const std::string& path) {
  FM_ASSIGN_OR_RETURN(const FlightDump dump, ReadFlightDumpFile(path));
  size_t events = 0;
  for (const FlightDumpRing& ring : dump.rings) {
    events += ring.events.size();
    if (ring.recorded_total < ring.events.size()) {
      return Status::InvalidArgument(
          path + ": ring tid " + std::to_string(ring.tid) + " stores " +
          std::to_string(ring.events.size()) + " event(s) but claims only " +
          std::to_string(ring.recorded_total) + " ever recorded");
    }
  }
  std::printf("  ok  %-16s %zu ring(s), %zu event(s), %zu name(s), CRC ok\n",
              std::filesystem::path(path).filename().c_str(),
              dump.rings.size(), events, dump.names.size());
  return Status::OK();
}

/// Chrome trace-event JSON (trace_export output): per-lane B/E balance.
Status CheckTrace(const std::string& path) {
  FM_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  FM_RETURN_IF_ERROR(ValidateChromeTrace(text));
  std::printf("  ok  %-16s balanced trace-event JSON\n",
              std::filesystem::path(path).filename().c_str());
  return Status::OK();
}

/// export.json contract: the schema tag, and freshness fields a poller uses
/// to distinguish a live exporter from a stale file.
Status CheckExportJson(const std::string& path) {
  FM_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  FM_ASSIGN_OR_RETURN(const JsonValue root, ParseJson(text));
  const std::string schema = root.StringOr("schema", "");
  if (schema != "fairmove.export.v1") {
    return Status::InvalidArgument(path + ": schema '" + schema +
                                   "', expected 'fairmove.export.v1'");
  }
  for (const char* key :
       {"freshness_utc", "freshness_seq", "period_ms", "latency", "metrics"}) {
    if (root.Find(key) == nullptr) {
      return Status::InvalidArgument(path + ": missing key '" +
                                     std::string(key) + "'");
    }
  }
  const int64_t seq = static_cast<int64_t>(root.NumberOr("freshness_seq", 0));
  if (seq < 1) {
    return Status::InvalidArgument(path + ": freshness_seq " +
                                   std::to_string(seq) + " must be >= 1");
  }
  if (root.StringOr("freshness_utc", "").size() < 20) {
    return Status::InvalidArgument(path +
                                   ": freshness_utc is not a UTC timestamp");
  }
  std::printf("  ok  %-16s seq %lld\n",
              std::filesystem::path(path).filename().c_str(),
              static_cast<long long>(seq));
  return Status::OK();
}

/// windows.jsonl contract: every row carries the quantile payload, and the
/// epoch ids are strictly increasing per site name — the property that
/// makes the sliding windows stitchable into a time series.
Status CheckWindowRows(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  std::vector<std::pair<std::string, int64_t>> last_epoch;
  int64_t rows = 0;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    FM_ASSIGN_OR_RETURN(const JsonValue row, ParseJson(line));
    const std::string where = path + ": line " + std::to_string(line_no);
    for (const char* key : {"epoch_id", "name", "count", "rate_per_s",
                            "p50_ns", "p90_ns", "p99_ns", "p999_ns",
                            "window_count", "window_max_ns", "cum_count"}) {
      if (row.Find(key) == nullptr) {
        return Status::InvalidArgument(where + ": missing key '" +
                                       std::string(key) + "'");
      }
    }
    const std::string name = row.StringOr("name", "");
    const int64_t epoch = static_cast<int64_t>(row.NumberOr("epoch_id", -1));
    if (epoch < 0) {
      return Status::InvalidArgument(where + ": epoch_id must be >= 0");
    }
    std::pair<std::string, int64_t>* entry = nullptr;
    for (auto& e : last_epoch) {
      if (e.first == name) entry = &e;
    }
    if (entry == nullptr) {
      last_epoch.emplace_back(name, epoch);
    } else if (epoch <= entry->second) {
      return Status::InvalidArgument(
          where + ": site '" + name + "' epoch_id " +
          std::to_string(epoch) + " does not increase past " +
          std::to_string(entry->second));
    } else {
      entry->second = epoch;
    }
    ++rows;
  }
  std::printf("  ok  %-16s %lld row(s) across %zu site(s)\n",
              std::filesystem::path(path).filename().c_str(),
              static_cast<long long>(rows), last_epoch.size());
  return Status::OK();
}

/// A FAIRMOVE_METRICS_EXPORT directory: snapshot + windows + flight dump.
Status CheckExportDir(const std::string& dir) {
  FM_RETURN_IF_ERROR(CheckExportJson(dir + "/export.json"));
  FM_RETURN_IF_ERROR(CheckWindowRows(dir + "/windows.jsonl"));
  const std::string prom = dir + "/metrics.prom";
  FM_ASSIGN_OR_RETURN(const std::string prom_text, ReadFileToString(prom));
  if (prom_text.empty() || prom_text[0] != '#') {
    return Status::InvalidArgument(prom + ": missing exposition header");
  }
  std::printf("  ok  %-16s %zu byte(s)\n",
              std::filesystem::path(prom).filename().c_str(),
              prom_text.size());
  const std::string flight = dir + "/flight.fmfr";
  if (std::filesystem::exists(flight)) {
    FM_RETURN_IF_ERROR(CheckFlightDump(flight));
  }
  return Status::OK();
}

Status CheckTelemetryDir(const std::string& dir) {
  FM_RETURN_IF_ERROR(CheckJsonObjectFile(
      dir + "/manifest.json",
      {"schema", "run_name", "started_utc", "finished_utc", "seed", "scale",
       "episodes", "days", "threads", "build_type", "compiler",
       "profiling"}));
  FM_RETURN_IF_ERROR(CheckJsonObjectFile(dir + "/metrics.json",
                                         {"counters", "gauges",
                                          "histograms"}));
  FM_RETURN_IF_ERROR(
      CheckStream(dir + "/training.jsonl", {"kind", "phase", "method"}));
  FM_RETURN_IF_ERROR(CheckRacingCells(dir + "/training.jsonl"));
  FM_RETURN_IF_ERROR(CheckStream(dir + "/sim.jsonl", {"kind", "run",
                                                      "slot"}));
  FM_RETURN_IF_ERROR(CheckShardComposition(dir + "/sim.jsonl"));
  FM_RETURN_IF_ERROR(CheckStream(dir + "/pool.jsonl", {"kind", "threads"}));
  // Only written when FAIRMOVE_PROFILE=1 accompanied the run.
  const std::string profile = dir + "/profile.json";
  if (std::filesystem::exists(profile)) {
    FM_RETURN_IF_ERROR(CheckJsonObjectFile(profile, {"spans"}));
  }
  // Live-observability artefacts, when the run produced them in this dir.
  if (std::filesystem::exists(dir + "/export.json")) {
    FM_RETURN_IF_ERROR(CheckExportDir(dir));
  }
  for (const char* name : {"/flight_crash.fmfr", "/flight_stall.fmfr"}) {
    const std::string path = dir + name;
    if (std::filesystem::exists(path)) {
      FM_RETURN_IF_ERROR(CheckFlightDump(path));
    }
  }
  return Status::OK();
}

}  // namespace
}  // namespace fairmove

int main(int argc, char** argv) {
  const char* usage = "usage: %s [--export|--flight|--trace] <path>\n";
  fairmove::Status status;
  if (argc == 3 && std::strcmp(argv[1], "--flight") == 0) {
    std::printf("checking flight dump %s\n", argv[2]);
    status = fairmove::CheckFlightDump(argv[2]);
  } else if (argc == 3 && std::strcmp(argv[1], "--trace") == 0) {
    std::printf("checking trace %s\n", argv[2]);
    status = fairmove::CheckTrace(argv[2]);
  } else if (argc == 3 && std::strcmp(argv[1], "--export") == 0) {
    std::printf("checking export dir %s\n", argv[2]);
    status = fairmove::CheckExportDir(argv[2]);
  } else if (argc == 2 && argv[1][0] != '-') {
    std::printf("checking telemetry dir %s\n", argv[1]);
    status = fairmove::CheckTelemetryDir(argv[1]);
  } else {
    std::fprintf(stderr, usage, argv[0]);
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("all artefacts valid\n");
  return 0;
}
