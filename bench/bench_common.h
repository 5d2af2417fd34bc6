// Shared helpers for the table/figure regeneration benches: consistent
// headers and paper-vs-measured annotation so every bench's output can be
// eyeballed against the original publication.
//
// Every bench also emits one machine-readable trailer line at exit:
//
//   BENCH_JSON {"bench":"Table 6","wall_ms":12.3,"comparisons":[...]}
//
// print_header() arms the trailer (first call names the bench; later calls
// add sections) and compare() feeds it, so a bench main needs no extra code.
// bench/run_all.sh greps these lines into an aggregate BENCH_PR<N>.json.
// The trailer also carries a "peak_rss_kb" column (VmHWM at exit) and, for
// benches that call record_bytes_allocated(), a "bytes_allocated" column.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/mem.h"
#include "util/strings.h"

namespace vpna::bench {

namespace detail {

// Trailer state for the whole process; armed by the first print_header().
struct JsonTrailer {
  std::string bench;
  std::string description;
  std::vector<std::string> sections;  // later print_header() ids
  // Pre-rendered {"metric":...,"paper":...,"measured":...} objects.
  std::vector<std::string> comparisons;
  std::chrono::steady_clock::time_point start;
  // Optional memory columns: peak RSS is always sampled at exit; benches
  // that know their allocator footprint call record_bytes_allocated().
  std::uint64_t bytes_allocated = 0;
  bool has_bytes_allocated = false;

  static JsonTrailer& instance() {
    static JsonTrailer trailer;
    return trailer;
  }

  void emit() const {
    std::string out = "BENCH_JSON {";
    out += "\"bench\":\"";
    out += util::json_escape(bench);
    out += "\",\"description\":\"";
    out += util::json_escape(description);
    out += '"';
    if (!sections.empty()) {
      out += ",\"sections\":[";
      for (std::size_t i = 0; i < sections.size(); ++i) {
        if (i > 0) out += ",";
        out += '"';
        out += util::json_escape(sections[i]);
        out += '"';
      }
      out += "]";
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    out += util::format(",\"wall_ms\":%.3f", wall_ms);
    out += util::format(",\"peak_rss_kb\":%zu", util::peak_rss_kb());
    if (has_bytes_allocated) {
      out += util::format(",\"bytes_allocated\":%llu",
                          static_cast<unsigned long long>(bytes_allocated));
    }
    out += ",\"comparisons\":[";
    for (std::size_t i = 0; i < comparisons.size(); ++i) {
      if (i > 0) out += ",";
      out += comparisons[i];
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
  }
};

inline void emit_trailer() { JsonTrailer::instance().emit(); }

}  // namespace detail

inline void print_header(const char* experiment_id, const char* description) {
  auto& trailer = detail::JsonTrailer::instance();
  if (trailer.bench.empty()) {
    trailer.bench = experiment_id;
    trailer.description = description;
    trailer.start = std::chrono::steady_clock::now();
    std::atexit(&detail::emit_trailer);
  } else {
    trailer.sections.emplace_back(experiment_id);
  }
  std::printf("==================================================================\n");
  std::printf("%s — %s\n", experiment_id, description);
  std::printf("==================================================================\n");
}

// One "paper said X, we measured Y" line.
inline void compare(const char* metric, const std::string& paper,
                    const std::string& measured) {
  detail::JsonTrailer::instance().comparisons.push_back(
      "{\"metric\":\"" + util::json_escape(metric) + "\",\"paper\":\"" +
      util::json_escape(paper) + "\",\"measured\":\"" +
      util::json_escape(measured) + "\"}");
  std::printf("%-44s paper: %-18s measured: %s\n", metric, paper.c_str(),
              measured.c_str());
}

inline void note(const char* text) { std::printf("note: %s\n", text); }

// Records the bench's known allocator footprint (e.g. arena bytes across
// shard worlds) into the trailer's "bytes_allocated" column. Cumulative:
// call per section and the trailer reports the sum.
inline void record_bytes_allocated(std::uint64_t bytes) {
  auto& trailer = detail::JsonTrailer::instance();
  trailer.bytes_allocated += bytes;
  trailer.has_bytes_allocated = true;
}

}  // namespace vpna::bench
