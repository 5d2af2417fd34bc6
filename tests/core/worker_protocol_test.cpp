// The supervisor↔worker IPC protocol: frame encode/decode byte-identity,
// incremental parsing from arbitrary chunk boundaries, sticky poisoning on
// corruption (the containment boundary for garbage streams), torn-frame
// detection at EOF, command-line round trips, crash-directive parsing, and
// the worker loop end to end over real pipes.
#include "core/worker_protocol.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "util/subprocess.h"

namespace vpna {
namespace {

core::ShardFrame sample_frame() {
  core::ShardFrame f;
  f.index = 12;
  f.attempt = 3;
  f.status = core::ShardFrameStatus::kOk;
  f.payload = std::string("canonical report bytes\0with nul", 31);
  return f;
}

TEST(FrameCodec, RoundTripsAllFields) {
  const auto frame = sample_frame();
  core::FrameReader reader;
  reader.feed(core::encode_shard_frame(frame));
  core::ShardFrame out;
  ASSERT_EQ(reader.next(&out), core::FrameReader::Result::kFrame);
  EXPECT_EQ(out.index, frame.index);
  EXPECT_EQ(out.attempt, frame.attempt);
  EXPECT_EQ(out.status, frame.status);
  EXPECT_EQ(out.payload, frame.payload);
  EXPECT_FALSE(reader.has_partial());
  EXPECT_EQ(reader.next(&out), core::FrameReader::Result::kNeedMore);
}

TEST(FrameCodec, ParsesAcrossArbitraryChunkBoundaries) {
  // One byte at a time: the worst case of non-blocking pipe reads.
  const std::string bytes = core::encode_shard_frame(sample_frame());
  core::FrameReader reader;
  core::ShardFrame out;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    reader.feed(std::string_view(bytes).substr(i, 1));
    EXPECT_EQ(reader.next(&out), core::FrameReader::Result::kNeedMore);
  }
  reader.feed(std::string_view(bytes).substr(bytes.size() - 1));
  EXPECT_EQ(reader.next(&out), core::FrameReader::Result::kFrame);
  EXPECT_EQ(out.payload, sample_frame().payload);
}

TEST(FrameCodec, DrainsBackToBackFrames) {
  core::ShardFrame a = sample_frame(), b = sample_frame();
  b.index = 13;
  b.status = core::ShardFrameStatus::kError;
  b.payload = "shard threw: bad vantage";
  core::FrameReader reader;
  reader.feed(core::encode_shard_frame(a) + core::encode_shard_frame(b));
  core::ShardFrame out;
  ASSERT_EQ(reader.next(&out), core::FrameReader::Result::kFrame);
  EXPECT_EQ(out.index, 12u);
  ASSERT_EQ(reader.next(&out), core::FrameReader::Result::kFrame);
  EXPECT_EQ(out.index, 13u);
  EXPECT_EQ(out.status, core::ShardFrameStatus::kError);
  EXPECT_EQ(reader.next(&out), core::FrameReader::Result::kNeedMore);
}

TEST(FrameCodec, BadMagicPoisonsTheStreamStickily) {
  core::FrameReader reader;
  reader.feed("this is stray stdout, not a frame header....");
  core::ShardFrame out;
  EXPECT_EQ(reader.next(&out), core::FrameReader::Result::kCorrupt);
  EXPECT_TRUE(reader.corrupt());
  // Even a pristine frame afterwards cannot un-poison: framing is lost.
  reader.feed(core::encode_shard_frame(sample_frame()));
  EXPECT_EQ(reader.next(&out), core::FrameReader::Result::kCorrupt);
  EXPECT_FALSE(reader.has_partial());
}

TEST(FrameCodec, ChecksumMismatchPoisons) {
  std::string bytes = core::encode_shard_frame(sample_frame());
  bytes[bytes.size() / 2] ^= 0x20;  // flip one payload bit
  core::FrameReader reader;
  reader.feed(bytes);
  core::ShardFrame out;
  EXPECT_EQ(reader.next(&out), core::FrameReader::Result::kCorrupt);
}

TEST(FrameCodec, BadStatusByteAndAbsurdLengthPoison) {
  std::string bytes = core::encode_shard_frame(sample_frame());
  bytes[12] = 7;  // status byte
  core::FrameReader a;
  a.feed(bytes);
  core::ShardFrame out;
  EXPECT_EQ(a.next(&out), core::FrameReader::Result::kCorrupt);

  bytes = core::encode_shard_frame(sample_frame());
  for (int i = 0; i < 8; ++i) bytes[13 + i] = '\xff';  // length = 2^64-1
  core::FrameReader b;
  b.feed(bytes);
  EXPECT_EQ(b.next(&out), core::FrameReader::Result::kCorrupt);
}

TEST(FrameCodec, TornFrameReadsAsPartialNotCorrupt) {
  // A worker that dies mid-write leaves a prefix: at EOF the supervisor
  // asks has_partial() and discards — the bytes are never decoded.
  const std::string bytes = core::encode_shard_frame(sample_frame());
  core::FrameReader reader;
  reader.feed(std::string_view(bytes).substr(0, bytes.size() - 3));
  core::ShardFrame out;
  EXPECT_EQ(reader.next(&out), core::FrameReader::Result::kNeedMore);
  EXPECT_TRUE(reader.has_partial());
  EXPECT_FALSE(reader.corrupt());
}

TEST(RunCommand, RoundTripsAndRejectsGarbage) {
  std::uint32_t index = 0, attempt = 0;
  EXPECT_TRUE(
      core::parse_run_command(core::encode_run_command(41, 2), &index,
                              &attempt));
  EXPECT_EQ(index, 41u);
  EXPECT_EQ(attempt, 2u);
  EXPECT_FALSE(core::parse_run_command("", &index, &attempt));
  EXPECT_FALSE(core::parse_run_command("X 1 2\n", &index, &attempt));
  EXPECT_FALSE(core::parse_run_command("R 1\n", &index, &attempt));
  EXPECT_FALSE(core::parse_run_command("R one two\n", &index, &attempt));
}

TEST(CrashDirective, ParsesTheFullGrammar) {
  auto d = core::parse_crash_directive("5");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->index, 5u);
  EXPECT_EQ(d->mode, core::CrashDirective::Mode::kSegv);
  EXPECT_FALSE(d->always);

  d = core::parse_crash_directive("7:exit");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->mode, core::CrashDirective::Mode::kExit);

  d = core::parse_crash_directive("0:hang:always");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->mode, core::CrashDirective::Mode::kHang);
  EXPECT_TRUE(d->always);

  d = core::parse_crash_directive("3:always");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->mode, core::CrashDirective::Mode::kSegv);
  EXPECT_TRUE(d->always);

  d = core::parse_crash_directive("2:throw:always");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->index, 2u);
  EXPECT_EQ(d->mode, core::CrashDirective::Mode::kThrow);
  EXPECT_TRUE(d->always);

  EXPECT_FALSE(core::parse_crash_directive("").has_value());
  EXPECT_FALSE(core::parse_crash_directive("nope").has_value());
  EXPECT_FALSE(core::parse_crash_directive("5:explode").has_value());
  EXPECT_FALSE(core::parse_crash_directive("5::").has_value());
}

// Runs shard_worker_loop in a forked child over real pipes and returns the
// frames the supervisor side would see.
std::string run_worker(const std::string& commands) {
  auto child = util::Subprocess::fork_child([](int read_fd, int write_fd) {
    return core::shard_worker_loop(
        read_fd, write_fd, [](std::uint32_t index, std::uint32_t attempt) {
          if (index == 99) throw std::runtime_error("shard 99 is cursed");
          return "report-" + std::to_string(index) + "-" +
                 std::to_string(attempt);
        });
  });
  EXPECT_TRUE(util::write_all(child.stdin_fd(), commands));
  child.close_stdin();
  std::string stream;
  while (util::read_available(child.stdout_fd(), &stream)) ::usleep(1000);
  EXPECT_TRUE(child.wait().success());  // clean EOF exit
  return stream;
}

TEST(WorkerLoop, RunsCommandsAndFramesResults) {
  core::FrameReader reader;
  reader.feed(run_worker(core::encode_run_command(4, 1) +
                         core::encode_run_command(9, 2)));
  core::ShardFrame out;
  ASSERT_EQ(reader.next(&out), core::FrameReader::Result::kFrame);
  EXPECT_EQ(out.index, 4u);
  EXPECT_EQ(out.status, core::ShardFrameStatus::kOk);
  EXPECT_EQ(out.payload, "report-4-1");
  ASSERT_EQ(reader.next(&out), core::FrameReader::Result::kFrame);
  EXPECT_EQ(out.index, 9u);
  EXPECT_EQ(out.attempt, 2u);
  EXPECT_EQ(out.payload, "report-9-2");
  EXPECT_FALSE(reader.has_partial());
}

TEST(WorkerLoop, ExceptionsBecomeErrorFramesAndTheWorkerSurvives) {
  core::FrameReader reader;
  reader.feed(run_worker(core::encode_run_command(99, 1) +
                         core::encode_run_command(1, 1)));
  core::ShardFrame out;
  ASSERT_EQ(reader.next(&out), core::FrameReader::Result::kFrame);
  EXPECT_EQ(out.index, 99u);
  EXPECT_EQ(out.status, core::ShardFrameStatus::kError);
  EXPECT_NE(out.payload.find("cursed"), std::string::npos);
  // The worker took more work after the throw: containment, not death.
  ASSERT_EQ(reader.next(&out), core::FrameReader::Result::kFrame);
  EXPECT_EQ(out.index, 1u);
  EXPECT_EQ(out.status, core::ShardFrameStatus::kOk);
}

TEST(WorkerLoop, CrashInjectionSegvLeavesATornFrame) {
  // VPNA_CRASH_SHARD drives the deterministic crash lanes; the segv mode
  // first writes half a frame so the supervisor's discard path is what
  // contains the death.
  ::setenv("VPNA_CRASH_SHARD", "6:segv:always", 1);
  auto child = util::Subprocess::fork_child([](int read_fd, int write_fd) {
    return core::shard_worker_loop(
        read_fd, write_fd,
        [](std::uint32_t, std::uint32_t) { return std::string("fine"); });
  });
  ::unsetenv("VPNA_CRASH_SHARD");
  ASSERT_TRUE(util::write_all(child.stdin_fd(), core::encode_run_command(6, 1)));
  std::string stream;
  while (util::read_available(child.stdout_fd(), &stream)) ::usleep(1000);
  const auto status = child.wait();
  EXPECT_TRUE(status.signaled);
  EXPECT_EQ(status.signal, SIGSEGV);
  core::FrameReader reader;
  reader.feed(stream);
  core::ShardFrame out;
  EXPECT_EQ(reader.next(&out), core::FrameReader::Result::kNeedMore);
  EXPECT_TRUE(reader.has_partial());  // torn, discarded at EOF
}

TEST(WorkerLoop, CrashInjectionFiresOnlyOnAttemptOneByDefault) {
  ::setenv("VPNA_CRASH_SHARD", "2:exit", 1);
  auto child = util::Subprocess::fork_child([](int read_fd, int write_fd) {
    return core::shard_worker_loop(
        read_fd, write_fd,
        [](std::uint32_t, std::uint32_t) { return std::string("ok"); });
  });
  ::unsetenv("VPNA_CRASH_SHARD");
  // Attempt 2 of the same shard: the directive must not fire.
  ASSERT_TRUE(
      util::write_all(child.stdin_fd(), core::encode_run_command(2, 2)));
  child.close_stdin();
  std::string stream;
  while (util::read_available(child.stdout_fd(), &stream)) ::usleep(1000);
  EXPECT_TRUE(child.wait().success());
  core::FrameReader reader;
  reader.feed(stream);
  core::ShardFrame out;
  ASSERT_EQ(reader.next(&out), core::FrameReader::Result::kFrame);
  EXPECT_EQ(out.payload, "ok");
}

}  // namespace
}  // namespace vpna
