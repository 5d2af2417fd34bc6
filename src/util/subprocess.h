// POSIX child-process lifecycle for the process-isolated campaign engine:
// fork-with-callback workers, piped command/result channels, non-blocking
// polling, waitpid reaping, and a TERM→KILL escalation helper.
//
// There is one way to start a worker: fork_child(fn). The child runs
// `fn()` and _exits with its return value. The pipes are passed as plain
// fds (no dup2 onto stdio, so stray printf in shard code cannot corrupt
// the frame stream). The child inherits the parent's heap copy-on-write,
// which is exactly the point: it can crash, leak, or hang without the
// supervisor's heap noticing. Nothing is re-exec'd, so the library, the
// CLI, the tests and the benchmark all run the same worker path.
//
// Signals: the child restores the default SIGINT/SIGTERM disposition
// before running `fn`, so a parent's cooperative-interrupt handler never
// shields a hung worker from the supervisor's SIGTERM.
//
// Fd hygiene: every parent-side pipe fd is registered in a process-wide
// table and closed in freshly-forked children, so a surviving worker never
// holds a dead sibling's pipe open (which would suppress the EOF the
// supervisor uses to detect the death).
//
// Destruction policy: a still-running child is SIGKILLed and reaped — a
// supervisor unwinding from an exception must never leak an orphan that
// keeps writing to a closed pipe.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include <sys/types.h>

namespace vpna::util {

// Decoded waitpid(2) status.
struct ExitStatus {
  bool exited = false;    // terminated via exit/_exit
  int code = 0;           // exit code when `exited`
  bool signaled = false;  // terminated by a signal (segfault, OOM kill, ...)
  int signal = 0;         // the fatal signal when `signaled`

  [[nodiscard]] bool success() const noexcept { return exited && code == 0; }
  // "exit 0" | "exit 3" | "signal 9 (Killed)" — for logs and Degradations.
  [[nodiscard]] std::string describe() const;
};

class Subprocess {
 public:
  Subprocess() = default;
  ~Subprocess();  // kill_now() if still running — never leaks an orphan
  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  // Forks a child that runs `child_main(read_fd, write_fd)` — its ends of
  // the command/result pipes — with SIGINT/SIGTERM at their defaults, and
  // _exits with its return value (static destructors and atexit handlers
  // are skipped; the child talks through the pipe, not through teardown).
  // An escaped exception _exits 125. Throws std::runtime_error when
  // pipe/fork fails.
  [[nodiscard]] static Subprocess fork_child(
      const std::function<int(int read_fd, int write_fd)>& child_main);

  [[nodiscard]] bool valid() const noexcept { return pid_ > 0; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  // Parent ends: write commands here / read results here. -1 after close.
  [[nodiscard]] int stdin_fd() const noexcept { return stdin_fd_; }
  [[nodiscard]] int stdout_fd() const noexcept { return stdout_fd_; }

  // Half-closes the command pipe — the worker's read loop sees EOF and
  // exits cleanly. Idempotent.
  void close_stdin();

  // Non-blocking reap. Returns the exit status once, then remembers it
  // (subsequent calls return the cached value). nullopt while running.
  std::optional<ExitStatus> poll();
  // Blocking reap.
  ExitStatus wait();
  [[nodiscard]] bool running();  // poll() wrapper
  // The status cached by a previous poll()/wait(), if any.
  [[nodiscard]] const std::optional<ExitStatus>& status() const noexcept {
    return status_;
  }

  // Sends `sig` (no-op once reaped).
  void signal(int sig);
  // SIGKILL + blocking reap (no-op once reaped).
  void kill_now();

 private:
  void reset() noexcept;

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::optional<ExitStatus> status_;
};

// Reads whatever is available on `fd` (up to a few KiB) without blocking.
// Appends to *out. Returns false on EOF or unrecoverable error, true while
// the stream is still open (possibly having read 0 bytes on EAGAIN).
bool read_available(int fd, std::string* out);

// Writes all of `data` to `fd`, retrying on EINTR/short writes. Returns
// false on EPIPE or other errors (the peer died mid-command).
bool write_all(int fd, std::string_view data);

}  // namespace vpna::util
