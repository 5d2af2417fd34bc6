#include "obs/trace.h"

#include "util/strings.h"

namespace vpna::obs {

namespace detail {
thread_local constinit TraceRecorder* t_tracer = nullptr;
}  // namespace detail
using detail::t_tracer;

TraceRecorder::TraceRecorder(TraceConfig config) : config_(config) {}

std::uint32_t TraceRecorder::append(char phase, std::string_view name,
                                     std::string_view category) {
  TraceEvent ev;
  ev.id = static_cast<std::uint32_t>(events_.size() + 1);
  ev.parent = stack_.empty() ? 0 : stack_.back();
  ev.depth = static_cast<std::uint32_t>(stack_.size());
  ev.phase = phase;
  ev.name.assign(name);
  ev.category.assign(category);
  ev.sim_ts_us = clock_ != nullptr ? clock_->now().micros() : 0;
  ev.sim_dur_us = phase == 'X' ? -1 : 0;  // spans stay open until ended
  events_.push_back(std::move(ev));
  return events_.back().id;
}

std::uint32_t TraceRecorder::begin_span(std::string_view name,
                                        std::string_view category) {
  stack_.push_back(append('X', name, category));
  return stack_.back();
}

void TraceRecorder::end_span(std::uint32_t id) {
  if (id == 0 || id > events_.size()) return;
  TraceEvent& ev = events_[id - 1];
  if (ev.phase != 'X' || ev.sim_dur_us >= 0) return;  // not open
  const std::int64_t now =
      clock_ != nullptr ? clock_->now().micros() : ev.sim_ts_us;
  ev.sim_dur_us = now - ev.sim_ts_us;
  // Pop the id from the open stack; RAII destruction order makes it the top
  // in practice, but tolerate out-of-order ends.
  for (std::size_t i = stack_.size(); i > 0; --i) {
    if (stack_[i - 1] != id) continue;
    stack_.erase(stack_.begin() + static_cast<std::ptrdiff_t>(i - 1));
    break;
  }
}

std::uint32_t TraceRecorder::add_instant(std::string_view name,
                                         std::string_view category) {
  return append('i', name, category);
}

void TraceRecorder::add_arg(std::uint32_t id, std::string_view key,
                            std::string_view value) {
  if (id == 0 || id > events_.size()) return;
  events_[id - 1].args.push_back(
      TraceArg{std::string(key), std::string(value)});
}

ScopedObservation::ScopedObservation(TraceRecorder* recorder,
                                     MetricsRegistry* metrics)
    : prev_tracer_(t_tracer),
      prev_meter_(detail::exchange_meter(metrics)) {
  t_tracer = recorder;
}

ScopedObservation::~ScopedObservation() {
  t_tracer = prev_tracer_;
  (void)detail::exchange_meter(prev_meter_);
}

Span::Span(std::string_view name, std::string_view layer) : rec_(t_tracer) {
  if (rec_ != nullptr) id_ = rec_->begin_span(name, layer);
  if (Profiler::enabled()) frame_ = detail::push_frame(name);
}

Span& Span::operator=(Span&& o) noexcept {
  if (this != &o) {
    end();
    rec_ = std::exchange(o.rec_, nullptr);
    id_ = o.id_;
    frame_ = std::exchange(o.frame_, 0);
  }
  return *this;
}

void Span::arg(std::string_view key, std::string_view value) {
  if (rec_ != nullptr) rec_->add_arg(id_, key, value);
}

void Span::arg(std::string_view key, std::int64_t value) {
  if (rec_ != nullptr)
    rec_->add_arg(id_, key,
                  util::format("%lld", static_cast<long long>(value)));
}

void Span::arg(std::string_view key, double value) {
  if (rec_ != nullptr) rec_->add_arg(id_, key, util::format("%.6g", value));
}

void Span::end() {
  if (rec_ != nullptr) std::exchange(rec_, nullptr)->end_span(id_);
  if (frame_ != 0) detail::pop_frame(std::exchange(frame_, 0));
}

Instant::Instant(std::string_view name, std::string_view category)
    : rec_(t_tracer) {
  if (rec_ != nullptr) id_ = rec_->add_instant(name, category);
}

void Instant::arg(std::string_view key, std::string_view value) {
  if (rec_ != nullptr) rec_->add_arg(id_, key, value);
}

void Instant::arg(std::string_view key, std::int64_t value) {
  if (rec_ != nullptr)
    rec_->add_arg(id_, key,
                  util::format("%lld", static_cast<long long>(value)));
}

}  // namespace vpna::obs
