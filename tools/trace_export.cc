// Converts fairmove observability artefacts to Chrome trace-event JSON
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing:
//
//   trace_export --flight <dump.fmfr>  [-o out.json]   real per-thread
//       timeline from an FMFR1 flight-recorder dump (crash, stall, or
//       exporter snapshot)
//   trace_export --profile <profile.json> [-o out.json] synthetic nested
//       layout of the FM_SPAN aggregate tree (FAIRMOVE_PROFILE=1 runs)
//
// Every emitted trace is re-validated (balanced B/E per lane) before it is
// written; the tool exits non-zero rather than produce a trace Perfetto
// would render misleadingly. Default output replaces the input extension
// with .trace.json next to the input.
//
// Usage: trace_export (--flight <file.fmfr> | --profile <profile.json>)
//                     [-o <out.json>]

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "fairmove/common/macros.h"
#include "fairmove/common/status.h"
#include "fairmove/io/atomic_file.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/trace.h"

namespace fairmove {
namespace {

std::string DefaultOutPath(const std::string& in_path) {
  std::filesystem::path p(in_path);
  p.replace_extension(".trace.json");
  return p.string();
}

Status ExportFlight(const std::string& in_path, const std::string& out_path) {
  FM_ASSIGN_OR_RETURN(const FlightDump dump, ReadFlightDumpFile(in_path));
  size_t events = 0;
  for (const FlightDumpRing& ring : dump.rings) events += ring.events.size();
  const std::string trace = FlightDumpToChromeTrace(dump);
  FM_RETURN_IF_ERROR(ValidateChromeTrace(trace));
  FM_RETURN_IF_ERROR(AtomicWriteFile(out_path, trace));
  std::printf("%s: %zu ring(s), %zu event(s), %zu name(s) -> %s\n",
              in_path.c_str(), dump.rings.size(), events, dump.names.size(),
              out_path.c_str());
  return Status::OK();
}

Status ExportProfile(const std::string& in_path, const std::string& out_path) {
  FM_ASSIGN_OR_RETURN(const std::string profile_json,
                      ReadFileToString(in_path));
  FM_ASSIGN_OR_RETURN(const std::string trace,
                      ProfileJsonToChromeTrace(profile_json));
  FM_RETURN_IF_ERROR(ValidateChromeTrace(trace));
  FM_RETURN_IF_ERROR(AtomicWriteFile(out_path, trace));
  std::printf("%s -> %s\n", in_path.c_str(), out_path.c_str());
  return Status::OK();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--flight <dump.fmfr> | --profile <profile.json>) "
               "[-o <out.json>]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace fairmove

int main(int argc, char** argv) {
  std::string flight_path;
  std::string profile_path;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--flight") == 0 && i + 1 < argc) {
      flight_path = argv[++i];
    } else if (std::strcmp(arg, "--profile") == 0 && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (std::strcmp(arg, "-o") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return fairmove::Usage(argv[0]);
    }
  }
  const bool flight = !flight_path.empty();
  const bool profile = !profile_path.empty();
  if (flight == profile) return fairmove::Usage(argv[0]);  // exactly one mode
  const std::string in_path = flight ? flight_path : profile_path;
  if (out_path.empty()) out_path = fairmove::DefaultOutPath(in_path);
  const fairmove::Status status =
      flight ? fairmove::ExportFlight(in_path, out_path)
             : fairmove::ExportProfile(in_path, out_path);
  if (!status.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
