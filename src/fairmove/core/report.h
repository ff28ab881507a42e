#ifndef FAIRMOVE_CORE_REPORT_H_
#define FAIRMOVE_CORE_REPORT_H_

#include <string>
#include <vector>

#include "fairmove/common/status.h"
#include "fairmove/core/evaluator.h"

namespace fairmove {

/// Renders one trained-and-evaluated method comparison into a single
/// markdown report containing every Section-IV artefact of the paper
/// (Tables II/III, Figs 10-16 distributions and hourly series), each
/// captioned with the shape the paper reports and shown beside the paper's
/// reference values. One training run feeds every table and figure.
class ReportWriter {
 public:
  /// `results` as returned by Evaluator::Run (GT first).
  explicit ReportWriter(std::vector<MethodResult> results);

  /// The full markdown document.
  std::string ToMarkdown() const;

  /// Writes ToMarkdown() to `path`.
  Status WriteFile(const std::string& path) const;

  /// Machine-readable comparison (schema "fairmove.report.v1"): per method
  /// the vs-GT headline numbers, a FleetMetrics digest, and the training
  /// curve. The JSON counterpart of ToMarkdown(), for BENCH_*.json
  /// trajectories and other tooling.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteJsonFile(const std::string& path) const;

 private:
  const MethodResult* GroundTruth() const;

  std::vector<MethodResult> results_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_CORE_REPORT_H_
