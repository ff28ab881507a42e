#ifndef FAIRMOVE_COMMON_TIME_TYPES_H_
#define FAIRMOVE_COMMON_TIME_TYPES_H_

#include <cstdint>
#include <string>

#include "fairmove/common/macros.h"

namespace fairmove {

/// Temporal discretization used throughout the system (paper §IV-A): one day
/// is split into 144 ten-minute slots.
inline constexpr int kMinutesPerSlot = 10;
inline constexpr int kSlotsPerDay = 24 * 60 / kMinutesPerSlot;  // 144
inline constexpr int kSlotsPerHour = 60 / kMinutesPerSlot;      // 6
inline constexpr int kHoursPerDay = 24;

/// A global slot index counting from the start of the simulated horizon
/// (slot 0 == day 0, 00:00). Helpers convert to within-day coordinates.
struct TimeSlot {
  int64_t index = 0;

  constexpr TimeSlot() = default;
  constexpr explicit TimeSlot(int64_t idx) : index(idx) {}

  /// Slot-of-day in [0, kSlotsPerDay).
  int SlotOfDay() const {
    int s = static_cast<int>(index % kSlotsPerDay);
    return s < 0 ? s + kSlotsPerDay : s;
  }

  /// Hour-of-day in [0, 24).
  int HourOfDay() const { return SlotOfDay() / kSlotsPerHour; }

  /// Minute-of-day in [0, 1440).
  int MinuteOfDay() const { return SlotOfDay() * kMinutesPerSlot; }

  /// Zero-based day number.
  int64_t Day() const {
    return index >= 0 ? index / kSlotsPerDay
                      : (index - (kSlotsPerDay - 1)) / kSlotsPerDay;
  }

  TimeSlot Next() const { return TimeSlot(index + 1); }

  /// "d<day> HH:MM" for logs and tables.
  std::string ToString() const;

  auto operator<=>(const TimeSlot&) const = default;
};

inline TimeSlot operator+(TimeSlot t, int64_t slots) {
  return TimeSlot(t.index + slots);
}

/// Converts a duration in minutes to whole slots, rounding up (a trip that
/// takes any part of a slot occupies that slot).
inline int64_t MinutesToSlotsCeil(double minutes) {
  FM_CHECK(minutes >= 0.0);
  const int64_t slots =
      static_cast<int64_t>((minutes + kMinutesPerSlot - 1e-9)) /
      kMinutesPerSlot;
  return slots < 1 ? 1 : slots;
}

inline std::string TimeSlot::ToString() const {
  const int minute = MinuteOfDay();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "d%lld %02d:%02d",
                static_cast<long long>(Day()), minute / 60, minute % 60);
  return buf;
}

}  // namespace fairmove

#endif  // FAIRMOVE_COMMON_TIME_TYPES_H_
