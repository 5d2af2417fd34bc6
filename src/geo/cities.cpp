#include "geo/cities.h"

#include <array>
#include <unordered_map>

namespace vpna::geo {

namespace {

// City centroids, rounded to ~0.01 degree. Order is stable (append-only).
constexpr std::array<City, 104> kCities = {{
    // North America
    {"New York", "US", {40.71, -74.01}},
    {"Los Angeles", "US", {34.05, -118.24}},
    {"Chicago", "US", {41.88, -87.63}},
    {"Dallas", "US", {32.78, -96.80}},
    {"Miami", "US", {25.76, -80.19}},
    {"Seattle", "US", {47.61, -122.33}},
    {"Ashburn", "US", {39.04, -77.49}},
    {"San Jose", "US", {37.34, -121.89}},
    {"Denver", "US", {39.74, -104.99}},
    {"Atlanta", "US", {33.75, -84.39}},
    {"Toronto", "CA", {43.65, -79.38}},
    {"Montreal", "CA", {45.50, -73.57}},
    {"Vancouver", "CA", {49.28, -123.12}},
    {"Mexico City", "MX", {19.43, -99.13}},
    {"Panama City", "PA", {8.98, -79.52}},
    {"San Jose CR", "CR", {9.93, -84.08}},
    {"Belize City", "BZ", {17.50, -88.20}},
    // South America
    {"Sao Paulo", "BR", {-23.55, -46.63}},
    {"Buenos Aires", "AR", {-34.60, -58.38}},
    {"Santiago", "CL", {-33.45, -70.67}},
    {"Bogota", "CO", {4.71, -74.07}},
    {"Lima", "PE", {-12.05, -77.04}},
    {"Caracas", "VE", {10.48, -66.90}},
    // Europe
    {"London", "GB", {51.51, -0.13}},
    {"Manchester", "GB", {53.48, -2.24}},
    {"Amsterdam", "NL", {52.37, 4.90}},
    {"Frankfurt", "DE", {50.11, 8.68}},
    {"Berlin", "DE", {52.52, 13.40}},
    {"Paris", "FR", {48.86, 2.35}},
    {"Madrid", "ES", {40.42, -3.70}},
    {"Lisbon", "PT", {38.72, -9.14}},
    {"Rome", "IT", {41.90, 12.50}},
    {"Milan", "IT", {45.46, 9.19}},
    {"Zurich", "CH", {47.37, 8.54}},
    {"Vienna", "AT", {48.21, 16.37}},
    {"Brussels", "BE", {50.85, 4.35}},
    {"Luxembourg", "LU", {49.61, 6.13}},
    {"Dublin", "IE", {53.35, -6.26}},
    {"Stockholm", "SE", {59.33, 18.07}},
    {"Oslo", "NO", {59.91, 10.75}},
    {"Copenhagen", "DK", {55.68, 12.57}},
    {"Helsinki", "FI", {60.17, 24.94}},
    {"Warsaw", "PL", {52.23, 21.01}},
    {"Prague", "CZ", {50.08, 14.44}},
    {"Budapest", "HU", {47.50, 19.04}},
    {"Bucharest", "RO", {44.43, 26.10}},
    {"Sofia", "BG", {42.70, 23.32}},
    {"Athens", "GR", {37.98, 23.73}},
    {"Belgrade", "RS", {44.79, 20.45}},
    {"Zagreb", "HR", {45.81, 15.98}},
    {"Kyiv", "UA", {50.45, 30.52}},
    {"Moscow", "RU", {55.76, 37.62}},
    {"St Petersburg", "RU", {59.93, 30.34}},
    {"Novosibirsk", "RU", {55.01, 82.93}},
    {"Istanbul", "TR", {41.01, 28.98}},
    {"Ankara", "TR", {39.93, 32.86}},
    {"Riga", "LV", {56.95, 24.11}},
    {"Vilnius", "LT", {54.69, 25.28}},
    {"Tallinn", "EE", {59.44, 24.75}},
    {"Reykjavik", "IS", {64.15, -21.94}},
    {"Chisinau", "MD", {47.01, 28.86}},
    // Middle East & Africa
    {"Tel Aviv", "IL", {32.09, 34.78}},
    {"Dubai", "AE", {25.20, 55.27}},
    {"Riyadh", "SA", {24.71, 46.68}},
    {"Tehran", "IR", {35.69, 51.39}},
    {"Cairo", "EG", {30.04, 31.24}},
    {"Johannesburg", "ZA", {-26.20, 28.05}},
    {"Cape Town", "ZA", {-33.93, 18.42}},
    {"Lagos", "NG", {6.52, 3.38}},
    {"Nairobi", "KE", {-1.29, 36.82}},
    {"Casablanca", "MA", {33.57, -7.59}},
    {"Doha", "QA", {25.29, 51.53}},
    {"Amman", "JO", {31.95, 35.93}},
    // Asia
    {"Tokyo", "JP", {35.68, 139.69}},
    {"Osaka", "JP", {34.69, 135.50}},
    {"Seoul", "KR", {37.57, 126.98}},
    {"Beijing", "CN", {39.90, 116.41}},
    {"Shanghai", "CN", {31.23, 121.47}},
    {"Hong Kong", "HK", {22.32, 114.17}},
    {"Taipei", "TW", {25.03, 121.57}},
    {"Singapore", "SG", {1.35, 103.82}},
    {"Kuala Lumpur", "MY", {3.14, 101.69}},
    {"Bangkok", "TH", {13.76, 100.50}},
    {"Jakarta", "ID", {-6.21, 106.85}},
    {"Manila", "PH", {14.60, 120.98}},
    {"Hanoi", "VN", {21.03, 105.85}},
    {"Mumbai", "IN", {19.08, 72.88}},
    {"Bangalore", "IN", {12.97, 77.59}},
    {"New Delhi", "IN", {28.61, 77.21}},
    {"Karachi", "PK", {24.86, 67.01}},
    {"Dhaka", "BD", {23.81, 90.41}},
    {"Almaty", "KZ", {43.24, 76.89}},
    {"Pyongyang", "KP", {39.04, 125.76}},
    // Oceania
    {"Sydney", "AU", {-33.87, 151.21}},
    {"Melbourne", "AU", {-37.81, 144.96}},
    {"Perth", "AU", {-31.95, 115.86}},
    {"Auckland", "NZ", {-36.85, 174.76}},
    // Islands / offshore registrations
    {"Victoria", "SC", {-4.62, 55.45}},
    {"Nicosia", "CY", {35.19, 33.38}},
    {"Valletta", "MT", {35.90, 14.51}},
    {"Road Town", "VG", {18.42, -64.62}},
    {"Hamilton", "BM", {32.29, -64.78}},
    {"Gibraltar", "GI", {36.14, -5.35}},
}};

const std::unordered_map<std::string_view, std::string_view>& country_names() {
  static const std::unordered_map<std::string_view, std::string_view> kMap = {
      {"US", "United States"}, {"CA", "Canada"},      {"MX", "Mexico"},
      {"PA", "Panama"},        {"CR", "Costa Rica"},  {"BZ", "Belize"},
      {"BR", "Brazil"},        {"AR", "Argentina"},   {"CL", "Chile"},
      {"CO", "Colombia"},      {"PE", "Peru"},        {"VE", "Venezuela"},
      {"GB", "United Kingdom"},{"NL", "Netherlands"}, {"DE", "Germany"},
      {"FR", "France"},        {"ES", "Spain"},       {"PT", "Portugal"},
      {"IT", "Italy"},         {"CH", "Switzerland"}, {"AT", "Austria"},
      {"BE", "Belgium"},       {"LU", "Luxembourg"},  {"IE", "Ireland"},
      {"SE", "Sweden"},        {"NO", "Norway"},      {"DK", "Denmark"},
      {"FI", "Finland"},       {"PL", "Poland"},      {"CZ", "Czechia"},
      {"HU", "Hungary"},       {"RO", "Romania"},     {"BG", "Bulgaria"},
      {"GR", "Greece"},        {"RS", "Serbia"},      {"HR", "Croatia"},
      {"UA", "Ukraine"},       {"RU", "Russia"},      {"TR", "Turkey"},
      {"LV", "Latvia"},        {"LT", "Lithuania"},   {"EE", "Estonia"},
      {"IS", "Iceland"},       {"MD", "Moldova"},     {"IL", "Israel"},
      {"AE", "United Arab Emirates"}, {"SA", "Saudi Arabia"},
      {"IR", "Iran"},          {"EG", "Egypt"},       {"ZA", "South Africa"},
      {"NG", "Nigeria"},       {"KE", "Kenya"},       {"MA", "Morocco"},
      {"QA", "Qatar"},         {"JO", "Jordan"},      {"JP", "Japan"},
      {"KR", "South Korea"},   {"CN", "China"},       {"HK", "Hong Kong"},
      {"TW", "Taiwan"},        {"SG", "Singapore"},   {"MY", "Malaysia"},
      {"TH", "Thailand"},      {"ID", "Indonesia"},   {"PH", "Philippines"},
      {"VN", "Vietnam"},       {"IN", "India"},       {"PK", "Pakistan"},
      {"BD", "Bangladesh"},    {"KZ", "Kazakhstan"},  {"KP", "North Korea"},
      {"AU", "Australia"},     {"NZ", "New Zealand"}, {"SC", "Seychelles"},
      {"CY", "Cyprus"},        {"MT", "Malta"},       {"VG", "British Virgin Islands"},
      {"BM", "Bermuda"},       {"GI", "Gibraltar"},
  };
  return kMap;
}

}  // namespace

std::span<const City> cities() { return kCities; }

std::optional<City> city_by_name(std::string_view name) {
  for (const auto& c : kCities)
    if (c.name == name) return c;
  return std::nullopt;
}

std::string_view country_name(std::string_view country_code) {
  const auto& m = country_names();
  const auto it = m.find(country_code);
  return it == m.end() ? country_code : it->second;
}

}  // namespace vpna::geo
