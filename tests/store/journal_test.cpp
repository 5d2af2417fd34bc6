// The durable campaign journal behind --resume: header binding, record
// round trips, append-only continuation, torn-final-line tolerance (a
// supervisor SIGKILLed mid-append must not poison the file), and refusal
// to parse files that are not journals.
#include "store/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

namespace vpna {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vpna_journal_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "campaign.journal").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static store::JournalHeader header() {
    store::JournalHeader h;
    h.campaign_fingerprint = 0xb18430c525c24657ull;
    h.seed = 20181031;
    h.shards = 62;
    h.cache_dir = "/tmp/cache \"quoted\"";
    return h;
  }

  static store::JournalEntry entry(std::size_t index,
                                   const std::string& outcome) {
    store::JournalEntry e;
    e.index = index;
    e.provider = "Provider-" + std::to_string(index);
    e.outcome = outcome;
    e.key_id = "00112233445566778899aabbccddeeff";
    e.attempts = 2;
    e.detail = "worker signal 9 (Killed)";
    return e;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(JournalTest, FreshOpenRecordsAndLoadsBack) {
  {
    auto journal = store::CampaignJournal::open(path_, header(), true);
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal->valid());
    journal->record(entry(0, "done"));
    journal->record(entry(5, "quarantined"));
  }
  store::JournalHeader h;
  std::vector<store::JournalEntry> entries;
  ASSERT_TRUE(store::CampaignJournal::load(path_, &h, &entries));
  EXPECT_EQ(h.version, store::kJournalVersion);
  EXPECT_EQ(h.campaign_fingerprint, header().campaign_fingerprint);
  EXPECT_EQ(h.seed, header().seed);
  EXPECT_EQ(h.shards, header().shards);
  EXPECT_EQ(h.cache_dir, header().cache_dir);  // escaping round-trips
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].index, 0u);
  EXPECT_EQ(entries[0].outcome, "done");
  EXPECT_EQ(entries[0].key_id, entry(0, "done").key_id);
  EXPECT_EQ(entries[1].index, 5u);
  EXPECT_EQ(entries[1].outcome, "quarantined");
  EXPECT_EQ(entries[1].attempts, 2);
  EXPECT_EQ(entries[1].detail, "worker signal 9 (Killed)");
}

TEST_F(JournalTest, FreshOpenTruncatesAPriorJournal) {
  {
    auto first = store::CampaignJournal::open(path_, header(), true);
    first->record(entry(1, "done"));
  }
  {
    auto second = store::CampaignJournal::open(path_, header(), true);
    second->record(entry(2, "done"));
  }
  store::JournalHeader h;
  std::vector<store::JournalEntry> entries;
  ASSERT_TRUE(store::CampaignJournal::load(path_, &h, &entries));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].index, 2u);
}

TEST_F(JournalTest, ContinuationAppendsWithoutRewritingTheHeader) {
  // A resumed run opens fresh=false and records only what it completes.
  {
    auto first = store::CampaignJournal::open(path_, header(), true);
    first->record(entry(0, "done"));
  }
  {
    auto resumed = store::CampaignJournal::open(path_, header(), false);
    ASSERT_TRUE(resumed.has_value());
    resumed->record(entry(1, "done"));
  }
  store::JournalHeader h;
  std::vector<store::JournalEntry> entries;
  ASSERT_TRUE(store::CampaignJournal::load(path_, &h, &entries));
  EXPECT_EQ(h.campaign_fingerprint, header().campaign_fingerprint);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].index, 1u);
}

TEST_F(JournalTest, TornFinalLineIsDroppedNotFatal) {
  {
    auto journal = store::CampaignJournal::open(path_, header(), true);
    journal->record(entry(0, "done"));
    journal->record(entry(1, "done"));
  }
  {
    // Simulate a SIGKILL mid-append: a record prefix with no newline.
    std::ofstream torn(path_, std::ios::app);
    torn << "{\"type\":\"shard\",\"index\":2,\"provider\":\"Half";
  }
  store::JournalHeader h;
  std::vector<store::JournalEntry> entries;
  ASSERT_TRUE(store::CampaignJournal::load(path_, &h, &entries));
  ASSERT_EQ(entries.size(), 2u);  // the torn line never surfaces
  EXPECT_EQ(entries[1].index, 1u);
}

TEST_F(JournalTest, ForeignLinesAreSkippedEntriesSurvive) {
  {
    auto journal = store::CampaignJournal::open(path_, header(), true);
    journal->record(entry(0, "done"));
  }
  {
    std::ofstream extra(path_, std::ios::app);
    extra << "{\"type\":\"note\",\"text\":\"not a shard record\"}\n";
  }
  {
    auto journal = store::CampaignJournal::open(path_, header(), false);
    journal->record(entry(1, "failed"));
  }
  store::JournalHeader h;
  std::vector<store::JournalEntry> entries;
  ASSERT_TRUE(store::CampaignJournal::load(path_, &h, &entries));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].outcome, "failed");
}

TEST_F(JournalTest, LoadRejectsMissingEmptyAndGarbageFiles) {
  store::JournalHeader h;
  std::vector<store::JournalEntry> entries;
  EXPECT_FALSE(store::CampaignJournal::load(path_, &h, &entries));

  {
    std::ofstream empty(path_);
  }
  EXPECT_FALSE(store::CampaignJournal::load(path_, &h, &entries));

  {
    std::ofstream junk(path_);
    junk << "this is not a journal\n{\"type\":\"shard\",\"index\":0}\n";
  }
  EXPECT_FALSE(store::CampaignJournal::load(path_, &h, &entries));
  EXPECT_TRUE(entries.empty());
}

TEST_F(JournalTest, ProviderNamesWithQuotesAndNewlinesRoundTrip) {
  store::JournalEntry odd = entry(3, "done");
  odd.provider = "Weird \"VPN\"\\co";
  odd.detail = "line one\nline two";
  store::JournalEntry control = entry(4, "failed");
  control.detail = "a\tb\rc\x01";
  {
    auto journal = store::CampaignJournal::open(path_, header(), true);
    journal->record(odd);
    journal->record(control);
  }
  store::JournalHeader h;
  std::vector<store::JournalEntry> entries;
  ASSERT_TRUE(store::CampaignJournal::load(path_, &h, &entries));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].provider, odd.provider);
  EXPECT_EQ(entries[0].detail, odd.detail);
  EXPECT_EQ(entries[1].detail, control.detail);
  // Every line is JSON: no raw control byte but the line-ending newline.
  std::ifstream in(path_, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  for (const char c : bytes)
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control byte " << static_cast<int>(c);
}

TEST_F(JournalTest, OpenFailureReturnsNulloptNotAThrow) {
  auto journal = store::CampaignJournal::open(
      (dir_ / "no-such-subdir" / "j").string(), header(), true);
  EXPECT_FALSE(journal.has_value());
}

}  // namespace
}  // namespace vpna
