// Thread-bound transport session policy: the one source of retry and
// address-fallback behaviour.
//
// Under a fault profile the campaign engine wants every flow in a shard to
// retry and fall back, without threading options through every protocol
// client's signature. A SessionPolicy does for flows what
// obs::ScopedObservation does for tracing: it is bound to the thread
// running one deterministic unit of work (a campaign shard), and every
// Flow constructed while it is bound adopts it. With nothing bound a flow
// makes one attempt at its first candidate address.
#pragma once

namespace vpna::transport {

// Deterministic retry schedule, charged entirely in virtual time. The
// defaults (one attempt, no backoff) make retrying a no-op.
struct RetryPolicy {
  int max_attempts = 1;           // total tries; 1 = no retries
  double initial_backoff_ms = 0;  // virtual-time wait before the 2nd try
  double backoff_multiplier = 2.0;

  // Backoff charged before `attempt` (1-based; attempt 1 waits nothing).
  [[nodiscard]] double backoff_before_attempt(int attempt) const noexcept;
};

struct SessionPolicy {
  RetryPolicy retry;
  // Try every candidate address in order within an attempt (the behaviour
  // real stub resolvers and browsers exhibit). Off: only the first
  // candidate is ever contacted.
  bool address_fallback = false;
};

// The policy bound to this thread, or nullptr (the default: one attempt,
// first address only).
[[nodiscard]] const SessionPolicy* session_policy() noexcept;

// Binds `policy` (may be nullptr) for the scope's lifetime, restoring the
// previous binding on destruction. The pointee must outlive the scope.
class ScopedSessionPolicy {
 public:
  explicit ScopedSessionPolicy(const SessionPolicy* policy) noexcept;
  ~ScopedSessionPolicy();

  ScopedSessionPolicy(const ScopedSessionPolicy&) = delete;
  ScopedSessionPolicy& operator=(const ScopedSessionPolicy&) = delete;

 private:
  const SessionPolicy* prev_;
};

}  // namespace vpna::transport
