#include "fairmove/core/report.h"

#include <fstream>
#include <sstream>

#include "fairmove/common/csv.h"
#include "fairmove/obs/jsonl.h"

namespace fairmove {

namespace {

std::string TableToMarkdown(const Table& table) {
  std::ostringstream os;
  os << '|';
  for (const std::string& h : table.header()) os << ' ' << h << " |";
  os << "\n|";
  for (size_t i = 0; i < table.num_cols(); ++i) os << "---|";
  os << '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    os << '|';
    for (const std::string& cell : table.row(r)) os << ' ' << cell << " |";
    os << '\n';
  }
  return os.str();
}

Table BoxTable(const std::vector<MethodResult>& results,
               const Sample FleetMetrics::*sample) {
  Table table({"method", "min", "p10", "q1", "median", "q3", "p90", "mean"});
  for (const MethodResult& r : results) {
    const Sample& s = r.metrics.*sample;
    if (s.empty()) continue;
    const auto box = s.Box();
    table.Row()
        .Str(r.name)
        .Num(box.min, 1)
        .Num(s.Percentile(10), 1)
        .Num(box.q1, 1)
        .Num(box.median, 1)
        .Num(box.q3, 1)
        .Num(s.Percentile(90), 1)
        .Num(s.Mean(), 1)
        .Done();
  }
  return table;
}

/// A box-plot figure: heading, the paper's expected shape, one row per
/// method.
std::string BoxSection(const char* heading, const char* caption,
                       const std::vector<MethodResult>& results,
                       const Sample FleetMetrics::*sample) {
  return std::string("## ") + heading + "\n\n" + caption + "\n\n" +
         TableToMarkdown(BoxTable(results, sample));
}

/// What the paper reports per method (Tables II/III, Figs 15/16), verbatim:
/// the paper gives some values only to whole percent or as a shape.
struct PaperValues {
  PolicyKind kind;
  const char* pipe;
  const char* pipf;
  const char* prct;
  const char* prit;
};

constexpr PaperValues kPaperValues[] = {
    {PolicyKind::kSd2, "-5.0%", "13%", "19.4%", "-23.1%"},
    {PolicyKind::kTql, "(small +)", "28.7%", "13.7%", "8.4%"},
    {PolicyKind::kDqn, "+7.5%", "17.9%", "23.6%", "21.0%"},
    {PolicyKind::kTba, "(small +)", "13%", "21.3%", "3.1%"},
    {PolicyKind::kFairMove, "+25.2%", "54.7%", "32.1%", "43.3%"},
};

/// Tables II/III and Figs 15/16: the vs-GT headline per method, beside the
/// paper's values.
std::string HeadlineSection(const std::vector<MethodResult>& results) {
  Table measured({"method", "PIPE", "PIPF", "PRCT", "PRIT", "mean PE",
                  "PF (var)", "PE gini", "service rate"});
  Table paper({"method", "PIPE", "PIPF", "PRCT", "PRIT"});
  for (const MethodResult& r : results) {
    measured.Row()
        .Str(r.name)
        .Pct(r.vs_gt.pipe)
        .Pct(r.vs_gt.pipf)
        .Pct(r.vs_gt.prct)
        .Pct(r.vs_gt.prit)
        .Num(r.metrics.pe.Mean(), 1)
        .Num(r.metrics.pf, 1)
        .Num(r.metrics.pe_gini, 3)
        .Pct(r.metrics.ServiceRate())
        .Done();
    for (const PaperValues& p : kPaperValues) {
      if (p.kind != r.kind) continue;
      paper.Row().Str(r.name).Str(p.pipe).Str(p.pipf).Str(p.prct).Str(p.prit)
          .Done();
    }
  }
  return "## Headline comparison (Tables II/III, Figs 15/16)\n\n"
         "- Table II — average PRCT per method.\n"
         "- Table III — average PRIT per method; key sign to reproduce: SD2 "
         "*negative* (nearest-station herding), FairMove the largest "
         "positive.\n"
         "- Fig 15 — overall PIPE per method; key signs to reproduce: SD2 "
         "negative, learned methods positive, FairMove/DQN at the top.\n"
         "- Fig 16 — overall PIPF per method; key sign to reproduce: the "
         "fairness-aware FairMove achieves the largest variance reduction."
         "\n\n" +
         TableToMarkdown(measured) + "\nPaper values:\n\n" +
         TableToMarkdown(paper);
}

/// Figs 11/13: PRCT and PRIT per hour of day, per method.
std::string HourlySection(const std::vector<MethodResult>& results) {
  std::vector<std::string> header{"hour"};
  for (const MethodResult& r : results) {
    if (r.kind == PolicyKind::kGroundTruth) continue;
    header.push_back(r.name + " PRCT");
    header.push_back(r.name + " PRIT");
  }
  Table table(header);
  for (int h = 0; h < kHoursPerDay; ++h) {
    auto row = table.Row();
    row.Str(std::to_string(h) + ":00");
    for (const MethodResult& r : results) {
      if (r.kind == PolicyKind::kGroundTruth) continue;
      row.Pct(r.vs_gt.prct_by_hour[static_cast<size_t>(h)]);
      row.Pct(r.vs_gt.prit_by_hour[static_cast<size_t>(h)]);
    }
    row.Done();
  }
  return "## Hourly PRCT / PRIT (Figs 11/13)\n\n"
         "- Fig 11 — hourly PRCT by method; paper shape: learned methods "
         "gain most in low-demand hours where GT drivers cruise blind.\n"
         "- Fig 13 — hourly PRIT by method; paper shape: the biggest "
         "reductions fall in the charging-peak hours where GT queues are "
         "longest.\n\n" +
         TableToMarkdown(table);
}

}  // namespace

ReportWriter::ReportWriter(std::vector<MethodResult> results)
    : results_(std::move(results)) {
  FM_CHECK(!results_.empty()) << "report needs at least the GT result";
}

const MethodResult* ReportWriter::GroundTruth() const {
  for (const MethodResult& r : results_) {
    if (r.kind == PolicyKind::kGroundTruth) return &r;
  }
  return &results_.front();
}

std::string ReportWriter::ToMarkdown() const {
  std::ostringstream os;
  os << "# FairMove evaluation report\n\n";
  const MethodResult* gt = GroundTruth();
  os << "Baseline GT: mean PE " << gt->metrics.pe.Mean() << " CNY/h, PF "
     << gt->metrics.pf << ", " << gt->metrics.trips << " trips, "
     << gt->metrics.charge_events << " charge events.\n\n";
  os << HeadlineSection(results_) << '\n';
  os << BoxSection("Fig 10 — per-trip cruise time by method, minutes",
                   "paper shape: every centralized method cuts the median vs "
                   "GT (6.5 -> 5.4 for FairMove) and FairMove also shrinks "
                   "the spread.",
                   results_, &FleetMetrics::trip_cruise_min)
     << '\n';
  os << BoxSection("Fig 12 — per-charge idle time by method, minutes",
                   "paper shape: FairMove has the tightest distribution (p75 "
                   "< 22 min); SD2 the heaviest queues.",
                   results_, &FleetMetrics::charge_idle_min)
     << '\n';
  os << BoxSection("Fig 14 — hourly PE distribution by method, CNY/h",
                   "paper shape: FairMove lifts the median (45.2 -> 53.1) AND "
                   "tightens the spread; SD2 slightly lowers the median.",
                   results_, &FleetMetrics::pe)
     << '\n';
  os << HourlySection(results_) << '\n';
  return os.str();
}

Status ReportWriter::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << ToMarkdown();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::string ReportWriter::ToJson() const {
  JsonObject root;
  root.Set("schema", "fairmove.report.v1");
  root.Set("baseline", GroundTruth()->name);
  JsonArray methods;
  for (const MethodResult& r : results_) {
    JsonObject method;
    method.Set("name", r.name);
    JsonObject vs_gt;
    vs_gt.Set("pipe", r.vs_gt.pipe)
        .Set("pipf", r.vs_gt.pipf)
        .Set("prct", r.vs_gt.prct)
        .Set("prit", r.vs_gt.prit);
    method.SetRaw("vs_gt", vs_gt.Str());
    JsonObject metrics;
    AppendFleetMetricsJson(r.metrics, &metrics);
    method.SetRaw("metrics", metrics.Str());
    JsonObject eval;
    eval.Set("avg_reward", r.eval_stats.avg_reward)
        .Set("avg_reward_own", r.eval_stats.avg_reward_own)
        .Set("transitions", r.eval_stats.transitions);
    method.SetRaw("eval", eval.Str());
    JsonArray training;
    for (const Trainer::EpisodeStats& s : r.training_stats) {
      JsonObject episode;
      episode.Set("avg_reward", s.avg_reward)
          .Set("transitions", s.transitions)
          .Set("fleet_pe_mean", s.fleet_pe_mean)
          .Set("fleet_pf", s.fleet_pf);
      training.PushRaw(episode.Str());
    }
    method.SetRaw("training", training.Str());
    methods.PushRaw(method.Str());
  }
  root.SetRaw("methods", methods.Str());
  return root.Str();
}

Status ReportWriter::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << ToJson() << '\n';
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace fairmove
