#include "core/worker_protocol.h"

#include <cstdlib>
#include <cstring>

#include <signal.h>
#include <time.h>
#include <unistd.h>

#include "util/le_bytes.h"
#include "util/rng.h"
#include "util/subprocess.h"

namespace vpna::core {

namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 1 + 8;  // through `length`
constexpr std::size_t kTrailerSize = 8;                 // payload checksum
// A frame never legitimately exceeds this (the largest provider report
// encodes to a few hundred KiB); a longer length field means the stream
// is garbage, not a giant frame — poison instead of buffering gigabytes.
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

}  // namespace

std::string encode_shard_frame(const ShardFrame& frame) {
  std::string out;
  out.reserve(kHeaderSize + frame.payload.size() + kTrailerSize);
  util::put_le<std::uint32_t>(out, kWorkerFrameMagic);
  util::put_le<std::uint32_t>(out, frame.index);
  util::put_le<std::uint32_t>(out, frame.attempt);
  out.push_back(static_cast<char>(frame.status));
  util::put_le<std::uint64_t>(out, frame.payload.size());
  out += frame.payload;
  util::put_le<std::uint64_t>(out, util::fnv1a(frame.payload));
  return out;
}

void FrameReader::feed(std::string_view bytes) {
  if (!corrupt_) buffer_.append(bytes.data(), bytes.size());
}

FrameReader::Result FrameReader::next(ShardFrame* out) {
  if (corrupt_) return Result::kCorrupt;
  if (buffer_.size() < kHeaderSize) return Result::kNeedMore;
  const char* p = buffer_.data();
  if (util::get_le<std::uint32_t>(p) != kWorkerFrameMagic) {
    corrupt_ = true;
    return Result::kCorrupt;
  }
  const std::uint8_t status_byte = static_cast<unsigned char>(p[12]);
  const std::uint64_t length = util::get_le<std::uint64_t>(p + 13);
  if (status_byte > 1 || length > kMaxFramePayload) {
    corrupt_ = true;
    return Result::kCorrupt;
  }
  const std::size_t total = kHeaderSize + length + kTrailerSize;
  if (buffer_.size() < total) return Result::kNeedMore;
  const std::string_view payload(p + kHeaderSize,
                                 static_cast<std::size_t>(length));
  if (util::get_le<std::uint64_t>(p + kHeaderSize + length) !=
      util::fnv1a(payload)) {
    corrupt_ = true;
    return Result::kCorrupt;
  }
  out->index = util::get_le<std::uint32_t>(p + 4);
  out->attempt = util::get_le<std::uint32_t>(p + 8);
  out->status = static_cast<ShardFrameStatus>(status_byte);
  out->payload.assign(payload);
  buffer_.erase(0, total);
  return Result::kFrame;
}

std::string encode_run_command(std::uint32_t index, std::uint32_t attempt) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "R %u %u\n", index, attempt);
  return buf;
}

bool parse_run_command(std::string_view line, std::uint32_t* index,
                       std::uint32_t* attempt) {
  unsigned i = 0, a = 0;
  char trailing = 0;
  const std::string s(line);
  if (std::sscanf(s.c_str(), "R %u %u%c", &i, &a, &trailing) < 2) return false;
  if (trailing != 0 && trailing != '\n') return false;
  *index = i;
  *attempt = a;
  return true;
}

std::optional<CrashDirective> parse_crash_directive(std::string_view spec) {
  if (spec.empty()) return std::nullopt;
  CrashDirective d;
  char* end = nullptr;
  const std::string s(spec);
  const unsigned long idx = std::strtoul(s.c_str(), &end, 10);
  if (end == s.c_str()) return std::nullopt;
  d.index = static_cast<std::uint32_t>(idx);
  std::string_view rest(end);
  while (!rest.empty()) {
    if (rest.front() != ':') return std::nullopt;
    rest.remove_prefix(1);
    const std::size_t colon = rest.find(':');
    const std::string_view tok = rest.substr(0, colon);
    if (tok == "segv") {
      d.mode = CrashDirective::Mode::kSegv;
    } else if (tok == "exit") {
      d.mode = CrashDirective::Mode::kExit;
    } else if (tok == "hang") {
      d.mode = CrashDirective::Mode::kHang;
    } else if (tok == "throw") {
      d.mode = CrashDirective::Mode::kThrow;
    } else if (tok == "always") {
      d.always = true;
    } else {
      return std::nullopt;
    }
    rest = colon == std::string_view::npos ? std::string_view{}
                                           : rest.substr(colon);
  }
  return d;
}

namespace {

// Self-destructs per the directive. Never returns.
[[noreturn]] void execute_crash(const CrashDirective& d, int out_fd) {
  switch (d.mode) {
    case CrashDirective::Mode::kSegv: {
      // Leave a torn frame behind first so the supervisor's partial-frame
      // discard path is what contains this death, then die by signal.
      ShardFrame torn;
      torn.index = d.index;
      torn.attempt = 1;
      torn.payload.assign(1024, 'x');
      const std::string bytes = encode_shard_frame(torn);
      (void)util::write_all(out_fd, std::string_view(bytes).substr(
                                        0, bytes.size() / 2));
      // Default disposition first: a handler someone installed (ASan's
      // turns SIGSEGV into an exit) must not soften the death by signal.
      ::signal(SIGSEGV, SIG_DFL);
      ::raise(SIGSEGV);
      ::_exit(124);  // unreachable unless SIGSEGV is blocked
    }
    case CrashDirective::Mode::kExit:
      ::_exit(41);
    case CrashDirective::Mode::kHang:
      for (;;) {
        struct timespec ts{1, 0};
        ::nanosleep(&ts, nullptr);
      }
    case CrashDirective::Mode::kThrow:
      break;  // filtered out by the caller: the executor's mode
  }
  ::_exit(124);
}

}  // namespace

int shard_worker_loop(
    int in_fd, int out_fd,
    const std::function<std::string(std::uint32_t, std::uint32_t)>& run) {
  std::optional<CrashDirective> crash;
  if (const char* spec = std::getenv("VPNA_CRASH_SHARD"))
    crash = parse_crash_directive(spec);
  if (crash && crash->mode == CrashDirective::Mode::kThrow) crash.reset();

  std::string pending;
  for (;;) {
    // Pull one command line (commands are tiny; a blocking read per line
    // is fine — the fd is the worker's own blocking pipe end).
    std::size_t nl;
    while ((nl = pending.find('\n')) == std::string::npos) {
      char buf[256];
      const ssize_t n = ::read(in_fd, buf, sizeof(buf));
      if (n > 0) {
        pending.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return 0;  // EOF (or a dead supervisor): clean shutdown
    }
    const std::string line = pending.substr(0, nl + 1);
    pending.erase(0, nl + 1);

    std::uint32_t index = 0, attempt = 0;
    if (!parse_run_command(line, &index, &attempt)) return 2;

    if (crash && crash->index == index && (crash->always || attempt == 1))
      execute_crash(*crash, out_fd);

    ShardFrame frame;
    frame.index = index;
    frame.attempt = attempt;
    try {
      frame.payload = run(index, attempt);
      frame.status = ShardFrameStatus::kOk;
    } catch (const std::exception& e) {
      frame.status = ShardFrameStatus::kError;
      frame.payload = e.what();
    } catch (...) {
      frame.status = ShardFrameStatus::kError;
      frame.payload = "unknown exception";
    }
    if (!util::write_all(out_fd, encode_shard_frame(frame))) return 3;
  }
}

}  // namespace vpna::core
