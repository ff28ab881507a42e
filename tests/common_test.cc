#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "fairmove/common/config.h"
#include "fairmove/common/parallel.h"
#include "fairmove/common/status.h"
#include "fairmove/common/time_types.h"
#include "fairmove/obs/span.h"
#include "fairmove/obs/telemetry.h"
#include "fairmove/obs/watchdog.h"

namespace fairmove {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::InvalidArgument("bad arg").message(), "bad arg");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  const Status s = Status::NotFound("missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Internal("a"), Status::Internal("a"));
  EXPECT_FALSE(Status::Internal("a") == Status::Internal("b"));
  EXPECT_FALSE(Status::Internal("a") == Status::IOError("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
}

// -------------------------------------------------------------- StatusOr --

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 5);
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(42), 42);
}

TEST(StatusOrTest, ValueOrReturnsValueWhenOk) {
  EXPECT_EQ(ParsePositive(7).value_or(42), 7);
}

TEST(StatusOrTest, MoveOnlyTypesWork) {
  StatusOr<std::unique_ptr<int>> r(std::make_unique<int>(3));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 3);
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  auto f = [](int v) -> StatusOr<int> {
    FM_ASSIGN_OR_RETURN(int x, ParsePositive(v));
    return x * 2;
  };
  EXPECT_EQ(f(4).value(), 8);
  EXPECT_FALSE(f(-4).ok());
}

TEST(StatusOrTest, ReturnIfErrorMacro) {
  auto f = [](bool fail) -> Status {
    FM_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::OK());
    return Status::OK();
  };
  EXPECT_TRUE(f(false).ok());
  EXPECT_EQ(f(true).code(), StatusCode::kInternal);
}

// -------------------------------------------------------------- TimeSlot --

TEST(TimeSlotTest, Constants) {
  EXPECT_EQ(kSlotsPerDay, 144);
  EXPECT_EQ(kSlotsPerHour, 6);
  EXPECT_EQ(kMinutesPerSlot, 10);
}

TEST(TimeSlotTest, SlotOfDayWrapsAcrossDays) {
  EXPECT_EQ(TimeSlot(0).SlotOfDay(), 0);
  EXPECT_EQ(TimeSlot(143).SlotOfDay(), 143);
  EXPECT_EQ(TimeSlot(144).SlotOfDay(), 0);
  EXPECT_EQ(TimeSlot(150).SlotOfDay(), 6);
}

TEST(TimeSlotTest, HourOfDay) {
  EXPECT_EQ(TimeSlot(0).HourOfDay(), 0);
  EXPECT_EQ(TimeSlot(5).HourOfDay(), 0);
  EXPECT_EQ(TimeSlot(6).HourOfDay(), 1);
  EXPECT_EQ(TimeSlot(143).HourOfDay(), 23);
  EXPECT_EQ(TimeSlot(144 + 60).HourOfDay(), 10);
}

TEST(TimeSlotTest, DayNumber) {
  EXPECT_EQ(TimeSlot(0).Day(), 0);
  EXPECT_EQ(TimeSlot(143).Day(), 0);
  EXPECT_EQ(TimeSlot(144).Day(), 1);
  EXPECT_EQ(TimeSlot(287).Day(), 1);
}

TEST(TimeSlotTest, ArithmeticAndComparison) {
  const TimeSlot t(10);
  EXPECT_EQ((t + 5).index, 15);
  EXPECT_EQ(t.Next().index, 11);
  EXPECT_LT(t, t.Next());
}

TEST(TimeSlotTest, MinutesToSlotsCeil) {
  EXPECT_EQ(MinutesToSlotsCeil(0.0), 1);   // never less than one slot
  EXPECT_EQ(MinutesToSlotsCeil(0.1), 1);
  EXPECT_EQ(MinutesToSlotsCeil(10.0), 1);
  EXPECT_EQ(MinutesToSlotsCeil(10.1), 2);
  EXPECT_EQ(MinutesToSlotsCeil(25.0), 3);
}

TEST(TimeSlotTest, ToStringFormat) {
  EXPECT_EQ(TimeSlot(0).ToString(), "d0 00:00");
  EXPECT_EQ(TimeSlot(6 * 9 + 3).ToString(), "d0 09:30");
  EXPECT_EQ(TimeSlot(144 + 6).ToString(), "d1 01:00");
}

// ----------------------------------------------------------- Env parsing --

TEST(ParseTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.25").value(), 0.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-3").value(), -3.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
}

TEST(ParseTest, ParseInt) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("4.2").ok());
}

class EnvOverridesTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("FAIRMOVE_SCALE");
    unsetenv("FAIRMOVE_EPISODES");
    unsetenv("FAIRMOVE_SEED");
    unsetenv("FAIRMOVE_DAYS");
  }
};

TEST_F(EnvOverridesTest, UnsetVariablesKeepDefaults) {
  EnvOverrides env;
  env.scale = 0.5;
  env.episodes = 3;
  ASSERT_TRUE(env.LoadFromEnv().ok());
  EXPECT_DOUBLE_EQ(env.scale, 0.5);
  EXPECT_EQ(env.episodes, 3);
}

TEST_F(EnvOverridesTest, ReadsAllVariables) {
  setenv("FAIRMOVE_SCALE", "0.25", 1);
  setenv("FAIRMOVE_EPISODES", "9", 1);
  setenv("FAIRMOVE_SEED", "123", 1);
  setenv("FAIRMOVE_DAYS", "4", 1);
  EnvOverrides env;
  ASSERT_TRUE(env.LoadFromEnv().ok());
  EXPECT_DOUBLE_EQ(env.scale, 0.25);
  EXPECT_EQ(env.episodes, 9);
  EXPECT_EQ(env.seed, 123u);
  EXPECT_EQ(env.days, 4);
}

TEST_F(EnvOverridesTest, RejectsMalformedValues) {
  setenv("FAIRMOVE_SCALE", "yes", 1);
  EnvOverrides env;
  EXPECT_FALSE(env.LoadFromEnv().ok());
}

TEST_F(EnvOverridesTest, RejectsOutOfRangeScale) {
  setenv("FAIRMOVE_SCALE", "1.5", 1);
  EnvOverrides env;
  EXPECT_FALSE(env.LoadFromEnv().ok());
  setenv("FAIRMOVE_SCALE", "0", 1);
  EXPECT_FALSE(env.LoadFromEnv().ok());
}

TEST_F(EnvOverridesTest, RejectsNegativeEpisodesOrDays) {
  setenv("FAIRMOVE_EPISODES", "-1", 1);
  EnvOverrides env;
  EXPECT_FALSE(env.LoadFromEnv().ok());
  unsetenv("FAIRMOVE_EPISODES");
  setenv("FAIRMOVE_DAYS", "0", 1);
  EXPECT_FALSE(env.LoadFromEnv().ok());
}

TEST_F(EnvOverridesTest, RejectsNegativeSeed) {
  setenv("FAIRMOVE_SEED", "-5", 1);
  EnvOverrides env;
  const Status s = env.LoadFromEnv();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("FAIRMOVE_SEED"), std::string::npos);
}

// FAIRMOVE_THREADS, FAIRMOVE_TELEMETRY and FAIRMOVE_STALL_MS are parsed by
// their owners, not by EnvOverrides (FAIRMOVE_METRICS_EXPORT too, by
// ParseExportSpec, tested with the exporter); these are the values those
// parsers accept and refuse. Unset is off (or the default); an empty value
// is refused like any malformed one.
TEST_F(EnvOverridesTest, RejectsOutOfRangeThreads) {
  for (const char* bad : {"0", "5000", "many", ""}) {
    const StatusOr<int> threads = ParseThreadCount(bad);
    ASSERT_FALSE(threads.ok()) << bad;
    EXPECT_NE(threads.status().message().find("FAIRMOVE_THREADS"),
              std::string::npos);
  }
  const StatusOr<int> eight = ParseThreadCount("8");
  ASSERT_TRUE(eight.ok());
  EXPECT_EQ(*eight, 8);
  const StatusOr<int> unset = ParseThreadCount(nullptr);
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(*unset, 0);
}

TEST_F(EnvOverridesTest, RejectsEmptyTelemetryDir) {
  const StatusOr<std::string> empty = ParseTelemetryDir("");
  ASSERT_FALSE(empty.ok());
  EXPECT_NE(empty.status().message().find("FAIRMOVE_TELEMETRY"),
            std::string::npos);
  const StatusOr<std::string> dir = ParseTelemetryDir("/tmp/fm-telemetry");
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(*dir, "/tmp/fm-telemetry");
  const StatusOr<std::string> unset = ParseTelemetryDir(nullptr);
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(*unset, "");
}

TEST_F(EnvOverridesTest, RejectsEmptyOrOutOfRangeStallBudget) {
  for (const char* bad : {"", "99", "3600001", "soon"}) {
    const StatusOr<int64_t> budget = ParseStallBudget(bad);
    ASSERT_FALSE(budget.ok()) << bad;
    EXPECT_NE(budget.status().message().find("FAIRMOVE_STALL_MS"),
              std::string::npos);
  }
  const StatusOr<int64_t> budget = ParseStallBudget("2000");
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(*budget, 2000);
  const StatusOr<int64_t> unset = ParseStallBudget(nullptr);
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(*unset, 0);
}

// FAIRMOVE_PROFILE is parsed by its owner, the profiler (obs/span.h), not
// by EnvOverrides; these are the values that parser accepts and refuses.
TEST_F(EnvOverridesTest, ProfileMustBeZeroOrOne) {
  EXPECT_FALSE(ParseProfileSetting("yes").ok());
  EXPECT_FALSE(ParseProfileSetting("2").ok());
  EXPECT_FALSE(ParseProfileSetting("").ok());
  const StatusOr<bool> on = ParseProfileSetting("1");
  ASSERT_TRUE(on.ok());
  EXPECT_TRUE(*on);
  const StatusOr<bool> off = ParseProfileSetting("0");
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(*off);
  const StatusOr<bool> unset = ParseProfileSetting(nullptr);
  ASSERT_TRUE(unset.ok());
  EXPECT_FALSE(*unset);
}

}  // namespace
}  // namespace fairmove
