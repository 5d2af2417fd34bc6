// IPC protocol between the campaign supervisor and its shard worker
// processes.
//
// Command channel (supervisor → worker, the worker's fd 0): one text line
// per task, "R <shard-index> <attempt>\n". EOF means "no more work, exit
// 0". Text because it is trivially debuggable (`echo "R 3 1" | worker`).
//
// Result channel (worker → supervisor, the worker's fd 1): one binary
// frame per finished shard:
//
//   magic   u32  'VPNW' (little-endian 0x574e5056)
//   index   u32  shard index echoed from the command
//   attempt u32  attempt echoed from the command
//   status  u8   0 = ok (payload = canonical report bytes)
//                1 = error (payload = human-readable reason; the shard
//                    threw inside the worker — contained, worker lives on)
//   length  u64  payload byte count
//   payload      `length` bytes
//   check   u64  FNV-1a over the payload bytes
//
// The frame is the crash-containment boundary: a worker that dies mid-
// write leaves a prefix of a frame behind, which the supervisor's
// FrameReader reports as incomplete at EOF — the in-flight shard is
// retried on a fresh process and the torn bytes are discarded, never
// decoded. A corrupted stream (bad magic or checksum — e.g. bytes written
// to the result pipe by anything but the frame encoder) is sticky-
// poisoned: the supervisor kills that worker and re-runs its in-flight
// shard.
//
// Deterministic crash injection (tests, CI lanes): the worker loop honours
//   VPNA_CRASH_SHARD=<index>[:segv|exit|hang|throw][:always]
// self-destructing right before running shard <index>. Default mode is
// segv; `segv` additionally writes a torn frame prefix first so the
// supervisor's partial-frame path is exercised, `exit` _exits 41, `hang`
// blocks forever (the watchdog/timeout escalation reaps it). Without
// `:always` the crash fires only on attempt 1, so a retried shard
// succeeds — the containment path is testable without flaky timing.
// `throw` is not a worker mode: the campaign's shard executor reads it and
// makes the shard's compute hook throw, which an in-process run sees as a
// thrown task and a worker reports as an error frame.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace vpna::core {

inline constexpr std::uint32_t kWorkerFrameMagic = 0x574e5056;  // "VPNW"

enum class ShardFrameStatus : std::uint8_t { kOk = 0, kError = 1 };

struct ShardFrame {
  std::uint32_t index = 0;
  std::uint32_t attempt = 0;
  ShardFrameStatus status = ShardFrameStatus::kOk;
  std::string payload;
};

[[nodiscard]] std::string encode_shard_frame(const ShardFrame& frame);

// Incremental frame parser fed from the supervisor's non-blocking pipe
// reads. Corruption (bad magic, checksum mismatch, bad status byte) is
// sticky: once poisoned, next() returns kCorrupt forever — the stream
// framing is lost and the only safe recovery is killing the worker.
class FrameReader {
 public:
  enum class Result : std::uint8_t {
    kFrame,     // *out filled with one complete frame
    kNeedMore,  // buffer holds no complete frame yet
    kCorrupt,   // stream poisoned (sticky)
  };

  void feed(std::string_view bytes);
  Result next(ShardFrame* out);

  // True when undecoded bytes are buffered — at worker EOF this means a
  // torn frame (the worker died mid-write).
  [[nodiscard]] bool has_partial() const noexcept {
    return !corrupt_ && !buffer_.empty();
  }
  [[nodiscard]] bool corrupt() const noexcept { return corrupt_; }

 private:
  std::string buffer_;
  bool corrupt_ = false;
};

// Command-line helpers ("R <index> <attempt>\n").
[[nodiscard]] std::string encode_run_command(std::uint32_t index,
                                             std::uint32_t attempt);
[[nodiscard]] bool parse_run_command(std::string_view line,
                                     std::uint32_t* index,
                                     std::uint32_t* attempt);

// Parsed VPNA_CRASH_SHARD directive (exposed for tests).
struct CrashDirective {
  std::uint32_t index = 0;
  enum class Mode : std::uint8_t { kSegv, kExit, kHang, kThrow } mode =
      Mode::kSegv;
  bool always = false;  // fire on every attempt, not just the first
};

[[nodiscard]] std::optional<CrashDirective> parse_crash_directive(
    std::string_view spec);

// The worker process body: blocks reading commands from `in_fd`, invokes
// `run(index, attempt)` for each, writes one frame per command to
// `out_fd`, and returns 0 on clean EOF. Exceptions from `run` become
// kError frames (the worker survives); a broken result pipe returns 3.
// Honours VPNA_CRASH_SHARD (see above) before invoking `run`.
int shard_worker_loop(
    int in_fd, int out_fd,
    const std::function<std::string(std::uint32_t index, std::uint32_t attempt)>&
        run);

}  // namespace vpna::core
