#include "transport/policy.h"

namespace vpna::transport {

namespace {
thread_local const SessionPolicy* t_policy = nullptr;
}  // namespace

double RetryPolicy::backoff_before_attempt(int attempt) const noexcept {
  if (attempt <= 1 || initial_backoff_ms <= 0) return 0.0;
  double wait = initial_backoff_ms;
  for (int i = 2; i < attempt; ++i) wait *= backoff_multiplier;
  return wait;
}

const SessionPolicy* session_policy() noexcept { return t_policy; }

ScopedSessionPolicy::ScopedSessionPolicy(const SessionPolicy* policy) noexcept
    : prev_(t_policy) {
  t_policy = policy;
}

ScopedSessionPolicy::~ScopedSessionPolicy() { t_policy = prev_; }

}  // namespace vpna::transport
