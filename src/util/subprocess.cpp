#include "util/subprocess.h"

#include <cerrno>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace vpna::util {

namespace {

// Parent-side pipe fds of every live Subprocess. Freshly-forked children
// close all of these so a worker never holds a sibling's pipe open (which
// would mask the EOF that signals the sibling's death).
std::mutex g_parent_fds_mu;
std::vector<int> g_parent_fds;

void register_parent_fd(int fd) {
  std::lock_guard<std::mutex> lock(g_parent_fds_mu);
  g_parent_fds.push_back(fd);
}

void unregister_parent_fd(int fd) {
  std::lock_guard<std::mutex> lock(g_parent_fds_mu);
  for (auto it = g_parent_fds.begin(); it != g_parent_fds.end(); ++it) {
    if (*it == fd) {
      g_parent_fds.erase(it);
      return;
    }
  }
}

// Runs in the child between fork and the worker body; async-signal-safety
// is not a concern for the mutex here because the campaign supervisor forks
// from a single-threaded context (no StatusMonitor thread in isolate mode),
// so no other thread can hold the lock across the fork.
void close_registered_fds_in_child() {
  for (int fd : g_parent_fds) ::close(fd);
  g_parent_fds.clear();
}

struct PipePair {
  int read_fd = -1;
  int write_fd = -1;
};

PipePair make_pipe() {
  int fds[2];
  if (::pipe(fds) != 0)
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  return {fds[0], fds[1]};
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

ExitStatus decode_wait_status(int wstatus) {
  ExitStatus s;
  if (WIFEXITED(wstatus)) {
    s.exited = true;
    s.code = WEXITSTATUS(wstatus);
  } else if (WIFSIGNALED(wstatus)) {
    s.signaled = true;
    s.signal = WTERMSIG(wstatus);
  }
  return s;
}

}  // namespace

std::string ExitStatus::describe() const {
  char buf[64];
  if (exited) {
    std::snprintf(buf, sizeof(buf), "exit %d", code);
  } else if (signaled) {
    const char* name = ::strsignal(signal);
    std::snprintf(buf, sizeof(buf), "signal %d (%s)", signal,
                  name != nullptr ? name : "?");
  } else {
    std::snprintf(buf, sizeof(buf), "unknown status");
  }
  return buf;
}

Subprocess::~Subprocess() {
  if (valid() && !status_.has_value()) kill_now();
  reset();
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_),
      stdin_fd_(other.stdin_fd_),
      stdout_fd_(other.stdout_fd_),
      status_(other.status_) {
  other.pid_ = -1;
  other.stdin_fd_ = -1;
  other.stdout_fd_ = -1;
  other.status_.reset();
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this == &other) return *this;
  if (valid() && !status_.has_value()) kill_now();
  reset();
  pid_ = other.pid_;
  stdin_fd_ = other.stdin_fd_;
  stdout_fd_ = other.stdout_fd_;
  status_ = other.status_;
  other.pid_ = -1;
  other.stdin_fd_ = -1;
  other.stdout_fd_ = -1;
  other.status_.reset();
  return *this;
}

void Subprocess::reset() noexcept {
  if (stdin_fd_ >= 0) {
    unregister_parent_fd(stdin_fd_);
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
  if (stdout_fd_ >= 0) {
    unregister_parent_fd(stdout_fd_);
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  pid_ = -1;
}

Subprocess Subprocess::fork_child(
    const std::function<int(int, int)>& child_main) {
  const PipePair to_child = make_pipe();
  const PipePair from_child = make_pipe();

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(to_child.read_fd);
    ::close(to_child.write_fd);
    ::close(from_child.read_fd);
    ::close(from_child.write_fd);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(to_child.write_fd);
    ::close(from_child.read_fd);
    close_registered_fds_in_child();
    // A forked child inherits the parent's handlers; a worker must die on
    // the supervisor's SIGTERM, not set the parent's interrupt flag.
    ::signal(SIGINT, SIG_DFL);
    ::signal(SIGTERM, SIG_DFL);
    int code = 125;
    try {
      code = child_main(to_child.read_fd, from_child.write_fd);
    } catch (...) {
      code = 125;
    }
    // _exit, not exit: the child's only contract is the bytes it already
    // wrote to the pipe; running inherited atexit/static teardown here
    // could touch copy-on-write state the parent still owns logically.
    ::_exit(code);
  }

  ::close(to_child.read_fd);
  ::close(from_child.write_fd);
  Subprocess p;
  p.pid_ = pid;
  p.stdin_fd_ = to_child.write_fd;
  p.stdout_fd_ = from_child.read_fd;
  set_cloexec(p.stdin_fd_);
  set_cloexec(p.stdout_fd_);
  set_nonblocking(p.stdout_fd_);
  register_parent_fd(p.stdin_fd_);
  register_parent_fd(p.stdout_fd_);
  return p;
}

void Subprocess::close_stdin() {
  if (stdin_fd_ >= 0) {
    unregister_parent_fd(stdin_fd_);
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
}

std::optional<ExitStatus> Subprocess::poll() {
  if (status_.has_value()) return status_;
  if (!valid()) return std::nullopt;
  int wstatus = 0;
  const pid_t r = ::waitpid(pid_, &wstatus, WNOHANG);
  if (r == pid_) status_ = decode_wait_status(wstatus);
  return status_;
}

ExitStatus Subprocess::wait() {
  if (status_.has_value()) return *status_;
  int wstatus = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &wstatus, 0);
  } while (r < 0 && errno == EINTR);
  status_ = r == pid_ ? decode_wait_status(wstatus) : ExitStatus{};
  return *status_;
}

bool Subprocess::running() { return valid() && !poll().has_value(); }

void Subprocess::signal(int sig) {
  if (valid() && !status_.has_value()) ::kill(pid_, sig);
}

void Subprocess::kill_now() {
  if (!valid() || status_.has_value()) return;
  ::kill(pid_, SIGKILL);
  wait();
}

bool read_available(int fd, std::string* out) {
  char buf[16384];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      out->append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
      continue;  // more may be pending
    }
    if (n == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace vpna::util
