#include "store/journal.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "util/strings.h"

namespace vpna::store {

namespace {

// Inverse of util::json_escape for the escapes it writes: \" \\ \n \r \t
// and \u00XX. Journals written before it escaped \r, \t and other control
// bytes use only the first three, so they still load.
std::string unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out.push_back(s[i]);
      continue;
    }
    const char e = s[++i];
    unsigned code = 0;
    if (e == 'n') {
      out.push_back('\n');
    } else if (e == 'r') {
      out.push_back('\r');
    } else if (e == 't') {
      out.push_back('\t');
    } else if (e == 'u' && i + 4 < s.size() &&
               std::from_chars(s.data() + i + 1, s.data() + i + 5, code, 16)
                       .ptr == s.data() + i + 5) {
      out.push_back(static_cast<char>(code));
      i += 4;
    } else {
      out.push_back(e);
    }
  }
  return out;
}

// Pulls `"name":<value>` out of one journal line. Quoted values unescape;
// bare values read to the next ',' or '}'.
bool extract(std::string_view line, std::string_view name, std::string* out) {
  std::string needle;
  needle.reserve(name.size() + 3);
  needle += '"';
  needle += name;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  std::size_t p = at + needle.size();
  if (p >= line.size()) return false;
  if (line[p] == '"') {
    ++p;
    std::string raw;
    while (p < line.size()) {
      if (line[p] == '\\' && p + 1 < line.size()) {
        raw.push_back('\\');
        raw.push_back(line[p + 1]);
        p += 2;
        continue;
      }
      if (line[p] == '"') {
        *out = unescape(raw);
        return true;
      }
      raw.push_back(line[p]);
      ++p;
    }
    return false;  // unterminated string: torn line
  }
  const std::size_t end = line.find_first_of(",}", p);
  if (end == std::string_view::npos) return false;
  *out = std::string(line.substr(p, end - p));
  return true;
}

bool extract_u64(std::string_view line, std::string_view name,
                 std::uint64_t* out) {
  std::string raw;
  if (!extract(line, name, &raw)) return false;
  char* end = nullptr;
  *out = std::strtoull(raw.c_str(), &end, 10);
  return end != raw.c_str();
}

bool extract_hex_u64(std::string_view line, std::string_view name,
                     std::uint64_t* out) {
  std::string raw;
  if (!extract(line, name, &raw)) return false;
  char* end = nullptr;
  *out = std::strtoull(raw.c_str(), &end, 16);
  return end != raw.c_str();
}

std::string render_header(const JournalHeader& h) {
  return util::format(
      "{\"type\":\"header\",\"version\":%u,\"campaign_fp\":\"%016llx\","
      "\"seed\":%llu,\"shards\":%zu,\"cache_dir\":\"%s\"}\n",
      h.version, static_cast<unsigned long long>(h.campaign_fingerprint),
      static_cast<unsigned long long>(h.seed), h.shards,
      util::json_escape(h.cache_dir).c_str());
}

bool parse_header(std::string_view line, JournalHeader* h) {
  std::string type;
  if (!extract(line, "type", &type) || type != "header") return false;
  std::uint64_t version = 0, seed = 0, shards = 0, fp = 0;
  if (!extract_u64(line, "version", &version)) return false;
  if (!extract_hex_u64(line, "campaign_fp", &fp)) return false;
  if (!extract_u64(line, "seed", &seed)) return false;
  if (!extract_u64(line, "shards", &shards)) return false;
  h->version = static_cast<std::uint32_t>(version);
  h->campaign_fingerprint = fp;
  h->seed = seed;
  h->shards = static_cast<std::size_t>(shards);
  extract(line, "cache_dir", &h->cache_dir);
  return h->version == kJournalVersion;
}

}  // namespace

CampaignJournal::~CampaignJournal() {
  if (fd_ >= 0) ::close(fd_);
}

CampaignJournal::CampaignJournal(CampaignJournal&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

CampaignJournal& CampaignJournal::operator=(CampaignJournal&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) ::close(fd_);
  fd_ = other.fd_;
  other.fd_ = -1;
  return *this;
}

std::optional<CampaignJournal> CampaignJournal::open(
    const std::string& path, const JournalHeader& header, bool fresh) {
  int flags = O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC;
  if (fresh) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return std::nullopt;
  CampaignJournal j;
  j.fd_ = fd;
  if (fresh) {
    const std::string line = render_header(header);
    if (::write(fd, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size()))
      return std::nullopt;
    ::fdatasync(fd);
  }
  return j;
}

void CampaignJournal::record(const JournalEntry& entry) {
  if (fd_ < 0) return;
  const std::string line = util::format(
      "{\"type\":\"shard\",\"index\":%zu,\"provider\":\"%s\","
      "\"outcome\":\"%s\",\"key\":\"%s\",\"attempts\":%d,\"detail\":\"%s\"}\n",
      entry.index, util::json_escape(entry.provider).c_str(),
      util::json_escape(entry.outcome).c_str(),
      util::json_escape(entry.key_id).c_str(),
      entry.attempts, util::json_escape(entry.detail).c_str());
  // One write of one complete line under O_APPEND: atomic with respect to
  // any reader, and the fdatasync makes it survive a supervisor SIGKILL.
  if (::write(fd_, line.data(), line.size()) ==
      static_cast<ssize_t>(line.size()))
    ::fdatasync(fd_);
}

bool CampaignJournal::load(const std::string& path, JournalHeader* header,
                           std::vector<JournalEntry>* entries) {
  std::ifstream in(path);
  if (!in) return false;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  std::istringstream lines(content);
  std::string line;
  if (!std::getline(lines, line)) return false;
  if (!parse_header(line, header)) return false;
  // A torn final line (no trailing newline after a crash mid-append) is
  // silently dropped: content's last byte tells us whether the final
  // getline result was a complete record.
  std::vector<std::string> raw;
  while (std::getline(lines, line)) raw.push_back(line);
  const bool last_complete = !content.empty() && content.back() == '\n';
  if (!raw.empty() && !last_complete) raw.pop_back();
  for (const auto& l : raw) {
    std::string type;
    if (!extract(l, "type", &type) || type != "shard") continue;
    JournalEntry e;
    std::uint64_t index = 0, attempts = 0;
    if (!extract_u64(l, "index", &index)) continue;
    if (!extract(l, "provider", &e.provider)) continue;
    if (!extract(l, "outcome", &e.outcome)) continue;
    extract(l, "key", &e.key_id);
    if (extract_u64(l, "attempts", &attempts))
      e.attempts = static_cast<int>(attempts);
    extract(l, "detail", &e.detail);
    e.index = static_cast<std::size_t>(index);
    entries->push_back(std::move(e));
  }
  return true;
}

}  // namespace vpna::store
