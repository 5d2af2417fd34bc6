// A static table of world cities with coordinates and ISO country codes.
// These are the sites where the world builder places datacenters, RIPE-
// Atlas-style anchors, DNS roots and censorship middleboxes. Coordinates
// are approximate city centroids; sub-kilometre accuracy is irrelevant at
// RTT-measurement granularity.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geo/geopoint.h"

namespace vpna::geo {

struct City {
  std::string_view name;
  std::string_view country_code;  // ISO 3166-1 alpha-2
  GeoPoint location;
};

// The full city table (stable order; ~100 entries spanning every populated
// continent, weighted toward the countries the paper's providers advertise).
[[nodiscard]] std::span<const City> cities();

// Lookup by exact city name; nullopt if absent.
[[nodiscard]] std::optional<City> city_by_name(std::string_view name);

// Human-readable country name for the ISO codes used in the table
// (falls back to the code itself for unmapped codes).
[[nodiscard]] std::string_view country_name(std::string_view country_code);

}  // namespace vpna::geo
