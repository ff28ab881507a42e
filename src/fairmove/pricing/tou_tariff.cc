#include "fairmove/pricing/tou_tariff.h"

namespace fairmove {

const char* PricePeriodName(PricePeriod p) {
  switch (p) {
    case PricePeriod::kOffPeak:
      return "off-peak";
    case PricePeriod::kFlat:
      return "flat";
    case PricePeriod::kPeak:
      return "peak";
  }
  return "unknown";
}

double TouTariff::RateOf(PricePeriod p) {
  switch (p) {
    case PricePeriod::kOffPeak:
      return kOffPeakRate;
    case PricePeriod::kFlat:
      return kFlatRate;
    case PricePeriod::kPeak:
      return kPeakRate;
  }
  return kFlatRate;
}

TouTariff TouTariff::Shenzhen() {
  using enum PricePeriod;
  std::array<PricePeriod, kHoursPerDay> p{};
  auto set = [&](int from, int to, PricePeriod period) {
    for (int h = from; h < to; ++h) p[static_cast<size_t>(h)] = period;
  };
  set(0, 2, kFlat);      // late night shoulder
  set(2, 7, kOffPeak);   // deep-night valley -> Fig 4 charging peak 2-6 h
  set(7, 9, kFlat);      // morning shoulder
  set(9, 12, kPeak);     // morning business peak
  set(12, 14, kOffPeak); // midday valley -> Fig 4 charging peak 12-14 h
  set(14, 17, kPeak);    // afternoon peak
  set(17, 18, kOffPeak); // pre-evening valley -> Fig 4 charging peak 17-18 h
  set(18, 22, kPeak);    // evening peak
  set(22, 24, kFlat);    // evening shoulder
  return TouTariff(p);
}

int TouTariff::HoursIn(PricePeriod p) const {
  int n = 0;
  for (PricePeriod q : periods_) n += (q == p) ? 1 : 0;
  return n;
}

}  // namespace fairmove
