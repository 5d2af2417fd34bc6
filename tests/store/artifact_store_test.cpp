// Content-addressed artifact store: key canonicalization and addressing,
// fetch/put round trips per cache mode, atomic-write hygiene, and the
// cache-poisoning resistance contract — every corruption shape (truncated,
// bit-flipped, foreign magic, key-echo mismatch) must come back as
// kCorrupt, never as a hit with damaged bytes.
#include "store/artifact_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>

#include <sys/resource.h>

#include "store/code_epoch.h"

namespace vpna {
namespace {

namespace fs = std::filesystem;

store::ShardKey test_key(std::string_view fault = "off",
                         std::uint64_t seed = 42) {
  store::ShardKey key;
  key.code_epoch = store::kCodeEpoch;
  key.payload_format = 1;
  key.catalog_fingerprint = 0x1122334455667788ull;
  key.shard_seed = seed;
  key.fault_profile = std::string(fault);
  key.link_capacities = false;
  key.runner_options_fingerprint = 0xdeadbeefcafef00dull;
  return key;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ArtifactStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("vpna_store_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] store::ArtifactStore make(store::CacheMode mode) const {
    store::CacheConfig cfg;
    cfg.dir = dir_.string();
    cfg.mode = mode;
    return store::ArtifactStore(cfg);
  }

  fs::path dir_;
};

TEST_F(ArtifactStoreTest, KeyIdIs32HexAndDeterministic) {
  const auto key = test_key();
  const std::string id = key.id();
  ASSERT_EQ(id.size(), 32u);
  for (char c : id) EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(c)));
  EXPECT_EQ(id, test_key().id());
}

TEST_F(ArtifactStoreTest, DistinctKeysGetDistinctAddresses) {
  const auto base = test_key();
  auto epoch = base;
  epoch.code_epoch = base.code_epoch + 1;
  auto fmt = base;
  fmt.payload_format = base.payload_format + 1;
  auto cat = base;
  cat.catalog_fingerprint ^= 1;
  auto seed = base;
  seed.shard_seed ^= 1;
  auto fault = base;
  fault.fault_profile = "flaky";
  auto caps = base;
  caps.link_capacities = !base.link_capacities;
  auto runner = base;
  runner.runner_options_fingerprint ^= 1;
  for (const auto& other : {epoch, fmt, cat, seed, fault, caps, runner}) {
    EXPECT_NE(base.canonical(), other.canonical());
    EXPECT_NE(base.id(), other.id());
  }
}

TEST_F(ArtifactStoreTest, PutThenFetchRoundTrips) {
  const auto s = make(store::CacheMode::kReadWrite);
  const auto key = test_key();
  const std::string payload = "shard report bytes \x00\x01\xff with nuls";
  ASSERT_TRUE(s.put(key, payload));
  const auto got = s.fetch(key);
  ASSERT_EQ(got.status, store::FetchStatus::kHit) << got.detail;
  EXPECT_EQ(got.payload, payload);
}

TEST_F(ArtifactStoreTest, EmptyPayloadRoundTrips) {
  const auto s = make(store::CacheMode::kReadWrite);
  ASSERT_TRUE(s.put(test_key(), ""));
  const auto got = s.fetch(test_key());
  ASSERT_EQ(got.status, store::FetchStatus::kHit) << got.detail;
  EXPECT_TRUE(got.payload.empty());
}

TEST_F(ArtifactStoreTest, UnknownKeyIsMiss) {
  const auto s = make(store::CacheMode::kReadWrite);
  EXPECT_EQ(s.fetch(test_key()).status, store::FetchStatus::kMiss);
}

TEST_F(ArtifactStoreTest, OffModeNeverTouchesDisk) {
  store::CacheConfig cfg;
  cfg.dir = dir_.string();
  cfg.mode = store::CacheMode::kOff;
  EXPECT_FALSE(cfg.enabled());
  const store::ArtifactStore s(cfg);
  EXPECT_FALSE(s.put(test_key(), "payload"));
  EXPECT_EQ(s.fetch(test_key()).status, store::FetchStatus::kMiss);
  EXPECT_FALSE(fs::exists(dir_));
}

TEST_F(ArtifactStoreTest, ReadOnlyModeFetchesButNeverWrites) {
  {
    const auto writer = make(store::CacheMode::kReadWrite);
    ASSERT_TRUE(writer.put(test_key(), "cached"));
  }
  const auto ro = make(store::CacheMode::kReadOnly);
  EXPECT_FALSE(ro.put(test_key("off", 43), "new"));
  EXPECT_EQ(ro.fetch(test_key("off", 43)).status, store::FetchStatus::kMiss);
  const auto got = ro.fetch(test_key());
  ASSERT_EQ(got.status, store::FetchStatus::kHit);
  EXPECT_EQ(got.payload, "cached");
  // Exactly the one artifact the rw store wrote; ro added nothing.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(ArtifactStoreTest, OverwriteReplacesAtomically) {
  const auto s = make(store::CacheMode::kReadWrite);
  ASSERT_TRUE(s.put(test_key(), "first"));
  ASSERT_TRUE(s.put(test_key(), "second"));
  const auto got = s.fetch(test_key());
  ASSERT_EQ(got.status, store::FetchStatus::kHit);
  EXPECT_EQ(got.payload, "second");
  // No orphaned temp files after successful puts.
  for (const auto& e : fs::directory_iterator(dir_))
    EXPECT_EQ(e.path().extension(), ".vpna") << e.path();
}

// A write the file system cuts short (here by the process's file-size
// limit) must fail the put and leave nothing behind: the final flush is
// checked before the rename, so a truncated file never becomes an artifact.
TEST_F(ArtifactStoreTest, PutThatCannotFlushFailsAndLeavesNoArtifact) {
  const auto s = make(store::CacheMode::kReadWrite);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit limited = saved;
  limited.rlim_cur = std::min<rlim_t>(64, saved.rlim_max);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  const bool stored = s.put(test_key(), std::string(300, 'x'));
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_FALSE(stored);
  EXPECT_EQ(s.fetch(test_key()).status, store::FetchStatus::kMiss);
  for (const auto& e : fs::directory_iterator(dir_))
    ADD_FAILURE() << "left behind: " << e.path();
}

TEST_F(ArtifactStoreTest, StrayTempFileDoesNotConfuseFetch) {
  const auto s = make(store::CacheMode::kReadWrite);
  ASSERT_TRUE(s.put(test_key(), "good"));
  write_file(dir_ / "deadbeef.tmp", "a crashed writer left this behind");
  const auto got = s.fetch(test_key());
  ASSERT_EQ(got.status, store::FetchStatus::kHit);
  EXPECT_EQ(got.payload, "good");
}

// --- cache-poisoning resistance ---------------------------------------------

TEST_F(ArtifactStoreTest, TruncatedArtifactIsCorruptNotHit) {
  const auto s = make(store::CacheMode::kReadOnly);
  const std::string payload(256, 'x');
  ASSERT_TRUE(make(store::CacheMode::kReadWrite).put(test_key(), payload));
  const fs::path p = s.path_for(test_key());
  const std::string valid = read_file(p);
  ASSERT_GT(valid.size(), payload.size());
  // Every truncation point — mid-magic, mid-header, mid-payload — must be
  // detected, and in ro mode the damaged bytes must survive the fetch.
  for (std::size_t len : {std::size_t{0}, std::size_t{4}, std::size_t{11},
                          valid.size() / 2, valid.size() - 1}) {
    write_file(p, valid.substr(0, len));
    const auto got = s.fetch(test_key());
    EXPECT_EQ(got.status, store::FetchStatus::kCorrupt)
        << "truncated to " << len << " bytes";
    EXPECT_TRUE(got.payload.empty());
    EXPECT_FALSE(got.detail.empty());
    EXPECT_TRUE(fs::exists(p)) << "read-only fetch must not delete";
  }
}

TEST_F(ArtifactStoreTest, BitFlippedPayloadFailsChecksum) {
  const auto rw = make(store::CacheMode::kReadWrite);
  const std::string payload(128, 'p');
  ASSERT_TRUE(rw.put(test_key(), payload));
  const fs::path p = rw.path_for(test_key());
  std::string bytes = read_file(p);
  bytes.back() = static_cast<char>(bytes.back() ^ 0x01);  // one payload bit
  write_file(p, bytes);
  const auto got = rw.fetch(test_key());
  EXPECT_EQ(got.status, store::FetchStatus::kCorrupt);
  EXPECT_TRUE(got.payload.empty());
  // kReadWrite self-heals: the poisoned artifact is evicted so the
  // recompute's put() can repair it.
  EXPECT_FALSE(fs::exists(p));
  ASSERT_TRUE(rw.put(test_key(), payload));
  EXPECT_EQ(rw.fetch(test_key()).status, store::FetchStatus::kHit);
}

TEST_F(ArtifactStoreTest, ForeignMagicIsCorrupt) {
  const auto s = make(store::CacheMode::kReadWrite);
  ASSERT_TRUE(s.put(test_key(), "payload"));
  const fs::path p = s.path_for(test_key());
  std::string bytes = read_file(p);
  bytes[0] = 'X';
  write_file(p, bytes);
  EXPECT_EQ(s.fetch(test_key()).status, store::FetchStatus::kCorrupt);
}

TEST_F(ArtifactStoreTest, KeyEchoMismatchIsCorrupt) {
  // An artifact filed under the wrong address (hash collision, or an
  // attacker copying a valid artifact over another key's file) fails the
  // in-header key echo even though magic and checksum are intact.
  const auto s = make(store::CacheMode::kReadWrite);
  const auto key_a = test_key("off", 1);
  const auto key_b = test_key("off", 2);
  ASSERT_TRUE(s.put(key_a, "payload for a"));
  fs::copy_file(s.path_for(key_a), s.path_for(key_b));
  const auto got = s.fetch(key_b);
  EXPECT_EQ(got.status, store::FetchStatus::kCorrupt);
  EXPECT_TRUE(got.payload.empty());
  // The original artifact is untouched and still valid.
  EXPECT_EQ(s.fetch(key_a).status, store::FetchStatus::kHit);
}

TEST_F(ArtifactStoreTest, ReadOnlyNeverDeletesCorruptArtifacts) {
  ASSERT_TRUE(make(store::CacheMode::kReadWrite).put(test_key(), "payload"));
  const auto ro = make(store::CacheMode::kReadOnly);
  const fs::path p = ro.path_for(test_key());
  std::string bytes = read_file(p);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x80);
  write_file(p, bytes);
  EXPECT_EQ(ro.fetch(test_key()).status, store::FetchStatus::kCorrupt);
  EXPECT_TRUE(fs::exists(p));
  // discard() is likewise a no-op outside kReadWrite.
  ro.discard(test_key());
  EXPECT_TRUE(fs::exists(p));
}

TEST_F(ArtifactStoreTest, DiscardEvictsInReadWrite) {
  const auto s = make(store::CacheMode::kReadWrite);
  ASSERT_TRUE(s.put(test_key(), "payload"));
  s.discard(test_key());
  EXPECT_FALSE(fs::exists(s.path_for(test_key())));
  EXPECT_EQ(s.fetch(test_key()).status, store::FetchStatus::kMiss);
  s.discard(test_key());  // discarding a miss is harmless
}

TEST_F(ArtifactStoreTest, CacheModeNamesRoundTrip) {
  for (auto mode : {store::CacheMode::kOff, store::CacheMode::kReadWrite,
                    store::CacheMode::kReadOnly}) {
    store::CacheMode parsed;
    ASSERT_TRUE(store::parse_cache_mode(store::cache_mode_name(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  store::CacheMode parsed;
  EXPECT_FALSE(store::parse_cache_mode("", &parsed));
  EXPECT_FALSE(store::parse_cache_mode("readwrite", &parsed));
  EXPECT_FALSE(store::parse_cache_mode("RW", &parsed));
}

}  // namespace
}  // namespace vpna
