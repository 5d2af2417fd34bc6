#include "obs/profiler.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "util/strings.h"

namespace vpna::obs {

namespace detail {
std::atomic<bool> g_profiler_enabled{false};
}  // namespace detail

namespace {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Stack paths are interned per thread as a tree: a frame's node is its
// parent's node plus its own name, so a frame on a known path allocates
// nothing. Node 0 is the root (the empty stack); 0 also ends a child list.
struct PathNode {
  std::uint32_t parent = 0;
  std::string name;
  PhaseStats stats;
  std::uint32_t first_child = 0;
  std::uint32_t next_sibling = 0;
};

// One open frame. `self_ns` accumulates the intervals during which this
// frame was the innermost open one, which stays exact when frames close out
// of order.
struct Frame {
  std::uint32_t token = 0;
  std::uint32_t node = 0;
  std::int64_t start_ns = 0;
  std::int64_t self_ns = 0;
};

// Per-thread accumulation. Only the owning thread touches the frame stack
// and writes `nodes`; it grows the node table and updates stats under `mu`,
// which report()/reset() take too (short and uncontended in practice).
struct ThreadProfile {
  std::vector<Frame> stack;
  std::int64_t mark_ns = 0;  // last push/pop, where the top's self resumes
  std::uint32_t last_token = 0;
  mutable std::mutex mu;
  std::vector<PathNode> nodes = std::vector<PathNode>(1);

  std::uint32_t child(std::uint32_t parent, std::string_view name) {
    for (auto id = nodes[parent].first_child; id != 0;
         id = nodes[id].next_sibling)
      if (nodes[id].name == name) return id;
    std::lock_guard<std::mutex> lock(mu);
    const auto id = static_cast<std::uint32_t>(nodes.size());
    nodes.push_back(
        PathNode{parent, std::string(name), {}, 0, nodes[parent].first_child});
    nodes[parent].first_child = id;
    return id;
  }

  // Charges the interval since the last push/pop to the innermost frame.
  std::int64_t advance() {
    const std::int64_t now = wall_now_ns();
    if (!stack.empty()) stack.back().self_ns += now - mark_ns;
    mark_ns = now;
    return now;
  }
};

thread_local ThreadProfile* t_profile = nullptr;

// The registry keeps thread tables alive after their threads exit, so a
// campaign report can be folded after the TaskPool is destroyed.
struct Registry {
  mutable std::mutex mu;
  std::vector<std::unique_ptr<ThreadProfile>> threads;

  static Registry& instance() {
    static Registry* reg = new Registry;  // leaked: usable during exit
    return *reg;
  }

  ThreadProfile* adopt() {
    auto tp = std::make_unique<ThreadProfile>();
    ThreadProfile* raw = tp.get();
    std::lock_guard<std::mutex> lock(mu);
    threads.push_back(std::move(tp));
    return raw;
  }
};

}  // namespace

namespace detail {

std::uint32_t push_frame(std::string_view name) {
  if (t_profile == nullptr) t_profile = Registry::instance().adopt();
  ThreadProfile& tp = *t_profile;
  const std::uint32_t node =
      tp.child(tp.stack.empty() ? 0 : tp.stack.back().node, name);
  const std::int64_t now = tp.advance();
  if (++tp.last_token == 0) ++tp.last_token;  // 0 means "no frame"
  tp.stack.push_back(Frame{tp.last_token, node, now, 0});
  return tp.last_token;
}

void pop_frame(std::uint32_t token) noexcept {
  ThreadProfile* tp = t_profile;
  if (tp == nullptr) return;
  // RAII makes the closing frame the top in practice; search down for the
  // out-of-order ends spans allow.
  std::size_t at = tp->stack.size();
  while (at > 0 && tp->stack[at - 1].token != token) --at;
  if (at == 0) return;
  const std::int64_t now = tp->advance();
  const Frame frame = tp->stack[at - 1];
  tp->stack.erase(tp->stack.begin() + static_cast<std::ptrdiff_t>(at - 1));
  std::lock_guard<std::mutex> lock(tp->mu);
  PhaseStats& stats = tp->nodes[frame.node].stats;
  stats.calls += 1;
  stats.total_ns += now - frame.start_ns;
  stats.self_ns += frame.self_ns;
}

}  // namespace detail

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

void Profiler::reset() {
  auto& reg = Registry::instance();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& tp : reg.threads) {
    std::lock_guard<std::mutex> tlock(tp->mu);
    for (auto& node : tp->nodes) node.stats = {};
  }
}

ProfileReport Profiler::report(std::size_t flame_top_n) const {
  std::map<std::string, PhaseStats, std::less<>> phases;
  std::map<std::string, PhaseStats, std::less<>> paths;
  std::size_t active_threads = 0;
  {
    auto& reg = Registry::instance();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto& tp : reg.threads) {
      std::lock_guard<std::mutex> tlock(tp->mu);
      bool active = false;
      for (const auto& node : tp->nodes) {
        if (node.stats.calls == 0) continue;
        active = true;
        // A frame nested in a same-name frame (a tunnelled net.transact
        // inside its outer one) already counts in the outer total.
        bool nested = false;
        std::string path = node.name;
        for (auto up = node.parent; up != 0; up = tp->nodes[up].parent) {
          nested = nested || tp->nodes[up].name == node.name;
          path = tp->nodes[up].name + ";" + path;
        }
        PhaseStats& phase = phases[node.name];
        phase.calls += node.stats.calls;
        phase.self_ns += node.stats.self_ns;
        if (!nested) phase.total_ns += node.stats.total_ns;
        paths[path].fold(node.stats);
      }
      if (active) ++active_threads;
    }
  }

  // Hot-phase ordering: self time descending, name ascending on ties (the
  // maps iterate by name and the sort is stable) — deterministic given the
  // data, so two reports over identical timings render identically.
  const auto hot_first = [](const auto& a, const auto& b) {
    return a.stats.self_ns > b.stats.self_ns;
  };
  ProfileReport report;
  report.threads = active_threads;
  for (auto& [name, stats] : phases)
    report.phases.push_back(ProfileReport::Phase{name, stats});
  std::stable_sort(report.phases.begin(), report.phases.end(), hot_first);
  for (auto& [path, stats] : paths)
    report.flame.push_back(ProfileReport::PathRow{path, stats});
  std::stable_sort(report.flame.begin(), report.flame.end(), hot_first);
  if (report.flame.size() > flame_top_n) report.flame.resize(flame_top_n);
  return report;
}

std::string render_profile_text(const ProfileReport& report) {
  std::string out =
      "# wall-clock profile (telemetry; varies run to run; never part of "
      "the canonical payload)\n";
  out += util::format("# threads=%zu\n", report.threads);
  const auto ms = [](std::int64_t ns) {
    return static_cast<double>(ns) / 1e6;
  };
  for (const auto& phase : report.phases) {
    out += util::format(
        "phase %s calls=%llu total_ms=%.3f self_ms=%.3f\n", phase.name.c_str(),
        static_cast<unsigned long long>(phase.stats.calls),
        ms(phase.stats.total_ns), ms(phase.stats.self_ns));
  }
  if (!report.flame.empty()) out += "# flame (top self-time stack paths)\n";
  for (const auto& row : report.flame) {
    out += util::format(
        "path %s calls=%llu total_ms=%.3f self_ms=%.3f\n", row.path.c_str(),
        static_cast<unsigned long long>(row.stats.calls), ms(row.stats.total_ns),
        ms(row.stats.self_ns));
  }
  return out;
}

}  // namespace vpna::obs
