// POSIX child-process lifecycle behind the isolated campaign engine:
// forked workers, pipe plumbing, EOF semantics, signal dispositions,
// non-blocking reaping, and the kill paths a supervisor leans on when a
// worker stops cooperating.
#include "util/subprocess.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <csignal>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

namespace vpna {
namespace {

TEST(ExitStatus, DescribesExitsAndSignals) {
  util::ExitStatus clean;
  clean.exited = true;
  clean.code = 0;
  EXPECT_TRUE(clean.success());
  EXPECT_EQ(clean.describe(), "exit 0");

  util::ExitStatus failed;
  failed.exited = true;
  failed.code = 41;
  EXPECT_FALSE(failed.success());
  EXPECT_EQ(failed.describe(), "exit 41");

  util::ExitStatus killed;
  killed.signaled = true;
  killed.signal = SIGKILL;
  EXPECT_FALSE(killed.success());
  EXPECT_NE(killed.describe().find("signal 9"), std::string::npos);
}

TEST(Subprocess, ForkChildReturnsItsExitCode) {
  auto child = util::Subprocess::fork_child([](int, int) { return 7; });
  ASSERT_TRUE(child.valid());
  const auto status = child.wait();
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 7);
}

TEST(Subprocess, ForkChildEscapedExceptionExits125) {
  auto child = util::Subprocess::fork_child(
      [](int, int) -> int { throw std::runtime_error("boom"); });
  const auto status = child.wait();
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 125);
}

TEST(Subprocess, PipesCarryCommandsAndResults) {
  // Child echoes every line it reads back on the result pipe, uppercased
  // flag prepended — enough to prove both directions work.
  auto child = util::Subprocess::fork_child([](int read_fd, int write_fd) {
    std::string buffer;
    for (;;) {
      std::string chunk;
      const bool open = util::read_available(read_fd, &chunk);
      buffer += chunk;
      const std::size_t nl = buffer.find('\n');
      if (nl != std::string::npos) {
        util::write_all(write_fd, "ok:" + buffer.substr(0, nl + 1));
        buffer.erase(0, nl + 1);
      }
      if (!open) return 0;
      if (chunk.empty()) ::usleep(1000);
    }
  });
  ASSERT_TRUE(util::write_all(child.stdin_fd(), "ping\n"));
  std::string reply;
  while (reply.find('\n') == std::string::npos) {
    if (!util::read_available(child.stdout_fd(), &reply)) break;
    if (reply.empty()) ::usleep(1000);
  }
  EXPECT_EQ(reply, "ok:ping\n");
  child.close_stdin();
  EXPECT_TRUE(child.wait().success());
}

TEST(Subprocess, CloseStdinDeliversEof) {
  // A child blocked on its command pipe exits cleanly when the supervisor
  // half-closes — the worker pool's normal shutdown path.
  auto child = util::Subprocess::fork_child([](int read_fd, int) {
    std::string sink;
    while (util::read_available(read_fd, &sink)) ::usleep(1000);
    return 0;
  });
  child.close_stdin();
  child.close_stdin();  // idempotent
  EXPECT_TRUE(child.wait().success());
}

TEST(Subprocess, PollIsNonBlockingAndCachesTheStatus) {
  auto child = util::Subprocess::fork_child([](int read_fd, int) {
    std::string sink;
    while (util::read_available(read_fd, &sink)) ::usleep(1000);
    return 3;
  });
  EXPECT_FALSE(child.poll().has_value());  // still running
  EXPECT_TRUE(child.running());
  child.close_stdin();
  const auto status = child.wait();
  EXPECT_EQ(status.code, 3);
  ASSERT_TRUE(child.poll().has_value());  // cached, not re-reaped
  EXPECT_EQ(child.poll()->code, 3);
  EXPECT_FALSE(child.running());
}

TEST(Subprocess, KillNowReportsTheFatalSignal) {
  auto child = util::Subprocess::fork_child([](int, int) {
    for (;;) ::usleep(10000);
    return 0;
  });
  child.kill_now();
  ASSERT_TRUE(child.status().has_value());
  EXPECT_TRUE(child.status()->signaled);
  EXPECT_EQ(child.status()->signal, SIGKILL);
  child.kill_now();  // no-op once reaped
}

TEST(Subprocess, DestructorNeverLeaksAHangingChild) {
  pid_t pid = -1;
  {
    auto child = util::Subprocess::fork_child([](int, int) {
      for (;;) ::usleep(10000);
      return 0;
    });
    pid = child.pid();
  }  // destructor: SIGKILL + reap
  // The destructor already reaped the pid, so it is no longer ours to
  // wait on: ECHILD, not "still running" (0) or a zombie (pid).
  errno = 0;
  EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(Subprocess, ForkedChildDiesOnSigtermDespiteParentHandler) {
  // A driver that handles SIGTERM cooperatively (full_campaign --isolate)
  // forks its workers; the inherited handler must not shield a hung
  // worker from the supervisor's escalation SIGTERM.
  struct sigaction handler {};
  struct sigaction previous {};
  handler.sa_handler = [](int) {};
  ::sigemptyset(&handler.sa_mask);
  ASSERT_EQ(::sigaction(SIGTERM, &handler, &previous), 0);
  auto child = util::Subprocess::fork_child([](int, int write_fd) {
    util::write_all(write_fd, "ready");  // past the child's setup
    for (;;) ::usleep(10000);
    return 0;
  });
  ::sigaction(SIGTERM, &previous, nullptr);
  std::string ready;
  while (ready.empty() && util::read_available(child.stdout_fd(), &ready))
    ::usleep(1000);
  ASSERT_EQ(ready, "ready");
  child.signal(SIGTERM);
  // Bounded wait: a child that survived the signal must fail the test,
  // not hang it.
  for (int i = 0; i < 500 && child.running(); ++i) ::usleep(10000);
  child.kill_now();
  ASSERT_TRUE(child.status().has_value());
  EXPECT_TRUE(child.status()->signaled);
  EXPECT_EQ(child.status()->signal, SIGTERM);
}

TEST(Subprocess, MoveTransfersOwnership) {
  auto child = util::Subprocess::fork_child([](int, int) { return 0; });
  const pid_t pid = child.pid();
  util::Subprocess moved = std::move(child);
  EXPECT_FALSE(child.valid());
  EXPECT_EQ(moved.pid(), pid);
  EXPECT_TRUE(moved.wait().success());
}

TEST(Subprocess, ReadAvailableReportsEofOnce) {
  auto child = util::Subprocess::fork_child([](int, int write_fd) {
    util::write_all(write_fd, "tail");
    return 0;
  });
  child.wait();
  std::string out;
  while (util::read_available(child.stdout_fd(), &out)) ::usleep(1000);
  EXPECT_EQ(out, "tail");  // data before EOF is never lost
}

}  // namespace
}  // namespace vpna
