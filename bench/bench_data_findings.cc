// Section II, the data-driven findings: Table I and Figs 2-8, all rendered
// from one ground-truth (GT) trace. The bench builds the system and runs GT
// once; each section then reads the finished trace and prints under its own
// "## <artefact>" heading. A section whose samples are missing prints why,
// the remaining sections still render, and the process exits 1.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "fairmove/common/csv.h"
#include "fairmove/data/analysis.h"
#include "fairmove/data/generator.h"
#include "fairmove/data/records.h"
#include "fairmove/pricing/tou_tariff.h"

namespace fairmove {
namespace {

void Heading(const char* artefact) { std::printf("## %s\n", artefact); }

Table Head(const Table& table, size_t n) {
  Table out(table.header());
  for (size_t i = 0; i < std::min(n, table.num_rows()); ++i) {
    out.AddRow(table.row(i));
  }
  return out;
}

// Table I: example records of the (synthetic) datasets — GPS stream,
// transaction fares, charging stations, urban partition.
void Table1Datasets(const Simulator& sim) {
  Heading("Table I — dataset record formats (synthetic feeds)");
  DatasetGenerator generator(&sim, 42);

  std::printf("\n(i) GPS data — %lld records generated, first 5:\n",
              static_cast<long long>(
                  generator.GenerateGps(30, 1000000).size()));
  std::printf("%s\n",
              Head(GpsRecordsTable(generator.GenerateGps(30, 200)), 5)
                  .ToAlignedText()
                  .c_str());

  const auto transactions = generator.GenerateTransactions();
  std::printf("(ii) Transaction fare data — %zu trips, first 5:\n",
              transactions.size());
  std::printf("%s\n",
              Head(TransactionRecordsTable(transactions), 5)
                  .ToAlignedText()
                  .c_str());

  const auto stations = generator.GenerateStations();
  std::printf("(iii) Charging station data — %zu stations, first 5:\n",
              stations.size());
  std::printf("%s\n",
              Head(StationRecordsTable(stations), 5).ToAlignedText().c_str());

  const auto regions = generator.GenerateRegions();
  std::printf("(iv) Urban partition data — %zu regions, first 5:\n",
              regions.size());
  std::printf("%s\n",
              Head(RegionRecordsTable(regions), 5).ToAlignedText().c_str());

  std::printf("(v) Charging pricing data: see the Fig 2 section.\n");
}

// Fig 2: the time-variant charging pricing of Shenzhen — 24 hourly rows of
// price period and CNY/kWh rate.
void Fig02Tariff() {
  Heading("Fig 2 — time-of-use charging price schedule");
  const TouTariff tariff = TouTariff::Shenzhen();
  Table table({"hour", "period", "CNY/kWh"});
  for (int h = 0; h < kHoursPerDay; ++h) {
    const TimeSlot slot(h * kSlotsPerHour);
    table.Row()
        .Str(std::to_string(h) + ":00")
        .Str(PricePeriodName(tariff.PeriodAt(slot)))
        .Num(tariff.RateAt(slot), 2)
        .Done();
  }
  std::printf("%s\n", table.ToAlignedText().c_str());
  std::printf("paper: off-peak 0.9, flat 1.2, peak 1.6 CNY/kWh; valleys at "
              "night, midday (12-14) and 17-18.\n");
}

// Fig 3: distribution of per-event charging duration. Paper headline:
// 73.5% of charging events last 45 minutes to two hours.
bool Fig03ChargeDuration(const Simulator& sim) {
  Heading("Fig 3 — charging duration distribution");
  const Sample durations = ChargeDurationSample(sim);
  if (durations.empty()) {
    std::printf("no charging events recorded\n");
    return false;
  }

  Histogram hist(0.0, 180.0, 12);  // 15-minute buckets
  for (double v : durations.values()) hist.Add(v);
  Table table({"duration (min)", "share"});
  for (int i = 0; i < hist.num_buckets(); ++i) {
    table.Row().Str(hist.bucket_label(i)).Pct(hist.bucket_fraction(i)).Done();
  }
  std::printf("%s\n", table.ToAlignedText().c_str());

  const double in_band = durations.FractionIn(45.0, 120.0);
  std::printf("events: %zu | median %.0f min | share in 45-120 min: "
              "%.1f%%  (paper: 73.5%%)\n",
              durations.size(), durations.Median(), in_band * 100.0);
  return true;
}

// Fig 4: number of charging events started per hour of day. Paper
// headline: intensive charging peaks during the low-price windows
// 2:00-6:00, 12:00-14:00 and 17:00-18:00.
void Fig04ChargingPeaks(const Simulator& sim) {
  Heading("Fig 4 — charging events per hour vs TOU price");
  const auto shares = ChargeStartShareByHour(sim);
  const TouTariff tariff = TouTariff::Shenzhen();
  Table table({"hour", "price period", "share of charge starts", "bar"});
  for (int h = 0; h < kHoursPerDay; ++h) {
    const double share = shares[static_cast<size_t>(h)];
    table.Row()
        .Str(std::to_string(h) + ":00")
        .Str(PricePeriodName(tariff.PeriodAt(TimeSlot(h * kSlotsPerHour))))
        .Pct(share)
        .Str(std::string(static_cast<size_t>(share * 200.0), '#'))
        .Done();
  }
  std::printf("%s\n", table.ToAlignedText().c_str());

  double valley = 0.0;
  for (int h : {2, 3, 4, 5, 12, 13, 17}) valley += shares[h];
  std::printf("share of charging started in the paper's peak windows "
              "(2-6, 12-14, 17-18 h): %.1f%% of all events in %.1f%% of "
              "the day\n",
              valley * 100.0, 7.0 / 24.0 * 100.0);
}

// Fig 5: CDF of the first cruise time after charging. Paper headline: 40%
// of e-taxis find their first passenger within 10 minutes, but 10% cruise
// for over an hour.
bool Fig05FirstCruiseCdf(const Simulator& sim) {
  Heading("Fig 5 — CDF of first cruise time after charging");
  const Sample first = FirstCruiseSample(sim);
  if (first.empty()) {
    std::printf("no first-cruise samples recorded\n");
    return false;
  }

  Table table({"t (min)", "P(first cruise <= t)"});
  for (double t : {5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0, 60.0, 90.0,
                   120.0}) {
    table.Row().Num(t, 0).Pct(first.CdfAt(t)).Done();
  }
  std::printf("%s\n", table.ToAlignedText().c_str());
  std::printf("samples: %zu | <=10 min: %.1f%% (paper: 40%%) | "
              ">60 min: %.1f%% (paper: 10%%)\n",
              first.size(), first.CdfAt(10.0) * 100.0,
              (1.0 - first.CdfAt(60.0)) * 100.0);
  return true;
}

// Fig 6: the first cruise time after charging differs strongly between
// charging stations (the paper shows three stations in different areas).
bool Fig06FirstCruiseByStation(const Simulator& sim) {
  Heading("Fig 6 — first cruise time by charging station");
  auto by_station = FirstCruiseByStation(sim, 10);
  if (by_station.size() < 3) {
    std::printf("not enough stations with samples (need 3, have %zu)\n",
                by_station.size());
    return false;
  }

  // Order stations by median first-cruise time; show the paper's "three
  // stations in different areas of the city" as min / median / max.
  std::vector<std::pair<StationId, const Sample*>> ranked;
  for (const auto& [station, sample] : by_station) {
    ranked.emplace_back(station, &sample);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second->Median() < b.second->Median();
  });
  const auto& low = ranked.front();
  const auto& mid = ranked[ranked.size() / 2];
  const auto& high = ranked.back();

  Table table({"station", "region class", "plugs", "events", "median (min)",
               "p25", "p75"});
  for (const auto& [station, sample] : {low, mid, high}) {
    const ChargingStation& st = sim.city().station(station);
    table.Row()
        .Str(st.name)
        .Str(RegionClassName(sim.city().region(st.region).cls))
        .Int(st.num_points)
        .Int(static_cast<int64_t>(sample->size()))
        .Num(sample->Median(), 1)
        .Num(sample->Percentile(25), 1)
        .Num(sample->Percentile(75), 1)
        .Done();
  }
  std::printf("%s\n", table.ToAlignedText().c_str());
  std::printf("spread across stations (max/min median): %.1fx "
              "(paper: \"large differences\" across stations)\n",
              high.second->Median() / std::max(1.0, low.second->Median()));
  return true;
}

void PrintRevenueWindow(const City& city, const std::vector<double>& revenue,
                        const char* label) {
  // Aggregate per region class (the spatial pattern of the choropleth).
  double sum[kNumRegionClasses] = {0};
  int count[kNumRegionClasses] = {0};
  Sample all;
  for (const Region& region : city.regions()) {
    const double v = revenue[static_cast<size_t>(region.id)];
    if (v <= 0.0) continue;  // regions without trips in the window
    sum[static_cast<int>(region.cls)] += v;
    count[static_cast<int>(region.cls)] += 1;
    all.Add(v);
  }
  Table table({"region class", "avg per-trip revenue (CNY)", "regions"});
  for (int c = 0; c < kNumRegionClasses; ++c) {
    if (count[c] == 0) continue;
    table.Row()
        .Str(RegionClassName(static_cast<RegionClass>(c)))
        .Num(sum[c] / count[c], 1)
        .Int(count[c])
        .Done();
  }
  std::printf("--- %s ---\n%s", label, table.ToAlignedText().c_str());
  if (!all.empty()) {
    std::printf("region distribution: p10 %.0f  median %.0f  p90 %.0f CNY "
                "(range %.0f-%.0f)\n\n",
                all.Percentile(10), all.Median(), all.Percentile(90),
                all.Percentile(0), all.Percentile(100));
  }
}

// Fig 7: average per-trip revenue by region for three windows of day —
// late night (00-01), morning rush (08-09), evening rush (18-19) — plus
// the per-window region-revenue distribution (the inset histograms).
void Fig07TripRevenue(const Simulator& sim) {
  Heading("Fig 7 — per-trip revenue by region and time window");
  PrintRevenueWindow(sim.city(), PerTripRevenueByRegion(sim, 0, 1),
                     "late night 00:00-01:00");
  PrintRevenueWindow(sim.city(), PerTripRevenueByRegion(sim, 8, 9),
                     "morning rush 08:00-09:00");
  PrintRevenueWindow(sim.city(), PerTripRevenueByRegion(sim, 18, 19),
                     "evening rush 18:00-19:00");
  std::printf("paper: per-trip revenue spans several CNY to >100 CNY; the "
              "airport region is always high, suburbs low; more low-revenue "
              "regions at night than in rush hours.\n");
}

// Fig 8 / finding (v): distribution of per-taxi hourly profit efficiency
// under the uncoordinated ground truth. Paper headline: 20% of e-taxis
// below 36 CNY/h, 20% above 51 CNY/h — a 42% gap.
void Fig08PeDistribution(const Simulator& sim) {
  Heading("Fig 8 — hourly profit-efficiency distribution (GT)");
  const Sample pe = HourlyPeSample(sim);
  Table table({"percentile", "hourly PE (CNY/h)"});
  for (double p : {5.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0,
                   90.0, 95.0}) {
    table.Row().Num(p, 0).Num(pe.Percentile(p), 1).Done();
  }
  std::printf("%s\n", table.ToAlignedText().c_str());
  std::printf("fleet: %zu taxis | mean %.1f | median %.1f (paper: 45.2) | "
              "PF (variance) %.1f | gini %.3f\n",
              pe.size(), pe.Mean(), pe.Median(), pe.Variance(),
              Gini(pe.values()));
  std::printf("p20 %.1f / p80 %.1f -> top-vs-bottom gap %.0f%% "
              "(paper: 36 / 51 -> 42%%)\n",
              pe.Percentile(20), pe.Percentile(80),
              PeP80OverP20Gap(sim) * 100.0);
}

}  // namespace
}  // namespace fairmove

int main() {
  using namespace fairmove;
  bench::BenchSetup setup = bench::MakeSetup(0.1, 0, 2);
  bench::PrintHeader("Section II data findings — Table I, Figs 2-8 (one GT "
                     "trace)",
                     setup);
  auto system = bench::BuildSystem(setup.config);
  bench::RunGroundTruthTrace(*system, setup.env.days);
  const Simulator& sim = system->sim();

  bool ok = true;
  Table1Datasets(sim);
  Fig02Tariff();
  ok = Fig03ChargeDuration(sim) && ok;
  Fig04ChargingPeaks(sim);
  ok = Fig05FirstCruiseCdf(sim) && ok;
  ok = Fig06FirstCruiseByStation(sim) && ok;
  Fig07TripRevenue(sim);
  Fig08PeDistribution(sim);
  return ok ? 0 : 1;
}
