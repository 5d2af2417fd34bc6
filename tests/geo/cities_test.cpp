#include "geo/cities.h"

#include <gtest/gtest.h>

#include <set>

namespace vpna::geo {
namespace {

TEST(Cities, TableIsLargeAndGloballyDiverse) {
  const auto all = cities();
  EXPECT_GE(all.size(), 100u);
  std::set<std::string_view> countries;
  for (const auto& c : all) countries.insert(c.country_code);
  EXPECT_GE(countries.size(), 60u);
}

TEST(Cities, NamesAreUnique) {
  std::set<std::string_view> names;
  for (const auto& c : cities()) names.insert(c.name);
  EXPECT_EQ(names.size(), cities().size());
}

TEST(Cities, CoordinatesWithinBounds) {
  for (const auto& c : cities()) {
    EXPECT_GE(c.location.lat_deg, -90.0) << c.name;
    EXPECT_LE(c.location.lat_deg, 90.0) << c.name;
    EXPECT_GE(c.location.lon_deg, -180.0) << c.name;
    EXPECT_LE(c.location.lon_deg, 180.0) << c.name;
  }
}

TEST(Cities, LookupByName) {
  const auto c = city_by_name("Seattle");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->country_code, "US");
  EXPECT_FALSE(city_by_name("Atlantis").has_value());
}

TEST(Cities, PaperCountriesPresent) {
  // Countries central to the paper's findings must exist in the table.
  std::set<std::string_view> countries;
  for (const auto& c : cities()) countries.insert(c.country_code);
  for (const char* code : {"US", "GB", "DE", "SE", "CA", "PA", "SC", "BZ",
                           "RU", "TR", "KR", "NL", "TH", "IR", "SA", "KP"}) {
    EXPECT_TRUE(countries.contains(code)) << code;
  }
}

TEST(CountryName, KnownAndUnknown) {
  EXPECT_EQ(country_name("US"), "United States");
  EXPECT_EQ(country_name("KP"), "North Korea");
  EXPECT_EQ(country_name("ZZ"), "ZZ");  // falls back to the code
}

}  // namespace
}  // namespace vpna::geo
