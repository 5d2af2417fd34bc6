// RSS telemetry parsing: /proc/self/status fields must read back exactly,
// and every malformed shape — absent key, missing digits, foreign unit,
// overflow, truncation — must degrade to 0, never to garbage.
#include "util/mem.h"

#include <gtest/gtest.h>

namespace vpna {
namespace {

using util::detail::parse_status_kb;

constexpr std::string_view kTypical =
    "Name:\tfull_campaign\n"
    "Umask:\t0022\n"
    "VmPeak:\t  123456 kB\n"
    "VmSize:\t  120000 kB\n"
    "VmHWM:\t   98765 kB\n"
    "VmRSS:\t   87654 kB\n"
    "Threads:\t8\n";

TEST(ParseStatusKb, ReadsPresentFields) {
  EXPECT_EQ(parse_status_kb(kTypical, "VmHWM:"), 98765u);
  EXPECT_EQ(parse_status_kb(kTypical, "VmRSS:"), 87654u);
  EXPECT_EQ(parse_status_kb(kTypical, "VmPeak:"), 123456u);
}

TEST(ParseStatusKb, AbsentKeyReadsAsZero) {
  // Not every kernel exposes every Vm* line (e.g. kernels without swap
  // accounting omit VmSwap); absence is "unknown", reported as 0.
  EXPECT_EQ(parse_status_kb(kTypical, "VmSwap:"), 0u);
  EXPECT_EQ(parse_status_kb("", "VmHWM:"), 0u);
}

TEST(ParseStatusKb, KeyMustStartTheLine) {
  EXPECT_EQ(parse_status_kb("xxVmHWM:\t42 kB\n", "VmHWM:"), 0u);
}

TEST(ParseStatusKb, MissingValueReadsAsZero) {
  EXPECT_EQ(parse_status_kb("VmHWM:\n", "VmHWM:"), 0u);
  EXPECT_EQ(parse_status_kb("VmHWM:", "VmHWM:"), 0u);
  EXPECT_EQ(parse_status_kb("VmHWM: \t \n", "VmHWM:"), 0u);
  EXPECT_EQ(parse_status_kb("VmHWM:\tkB\n", "VmHWM:"), 0u);
}

TEST(ParseStatusKb, ForeignUnitReadsAsZero) {
  // A field in bytes or pages would be wildly wrong if returned as KiB.
  EXPECT_EQ(parse_status_kb("VmHWM:\t42 mB\n", "VmHWM:"), 0u);
  EXPECT_EQ(parse_status_kb("VmHWM:\t42 bytes\n", "VmHWM:"), 0u);
  EXPECT_EQ(parse_status_kb("VmHWM:\t42 kB extra\n", "VmHWM:"), 0u);
}

TEST(ParseStatusKb, BareNumberWithoutUnitIsAccepted) {
  EXPECT_EQ(parse_status_kb("Threads:\t8\n", "Threads:"), 8u);
  EXPECT_EQ(parse_status_kb("VmHWM:\t42\n", "VmHWM:"), 42u);
}

TEST(ParseStatusKb, MissingTrailingNewlineIsFine) {
  EXPECT_EQ(parse_status_kb("VmHWM:\t42 kB", "VmHWM:"), 42u);
}

TEST(ParseStatusKb, CarriageReturnIsTolerated) {
  EXPECT_EQ(parse_status_kb("VmHWM:\t42 kB\r\n", "VmHWM:"), 42u);
}

TEST(ParseStatusKb, OverflowReadsAsZero) {
  // 2^64 kB can't be represented; garbage-in must not wrap around.
  EXPECT_EQ(
      parse_status_kb("VmHWM:\t99999999999999999999999 kB\n", "VmHWM:"), 0u);
}

TEST(ParseStatusKb, FirstMatchingLineWins) {
  EXPECT_EQ(parse_status_kb("VmHWM:\t1 kB\nVmHWM:\t2 kB\n", "VmHWM:"), 1u);
}

TEST(RssTelemetry, LiveReadingsAreSaneOnLinux) {
  // On Linux /proc/self/status exists and a running process has a nonzero
  // peak RSS; elsewhere the call must degrade to 0 rather than crash.
  const std::size_t peak = util::peak_rss_kb();
#ifdef __linux__
  EXPECT_GT(peak, 0u);
#else
  (void)peak;
#endif
}

}  // namespace
}  // namespace vpna
