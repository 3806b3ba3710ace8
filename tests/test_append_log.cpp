// persist::AppendLog, the one write-ahead log under the sweep journal, the
// interval stream and the job ledger (docs/CHECKPOINT.md, "Append-only
// logs").
//
// The contracts under test:
//
//   1. AppendLog itself: replay keeps the bytes through the last accepted
//      line, a file without a header line is a PersistError, a refusing
//      header propagates, and seal leaves only the final path.
//   2. Every crash point, all three logs: a log of a header plus three
//      records is cut at every byte length from the end of its header to
//      its full size, as kill -9 mid-append could leave it.  Reopening must
//      recover exactly the records wholly inside the cut, and a record
//      appended afterwards must land on a clean line of its own.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "common/archive.hpp"
#include "common/json.hpp"
#include "obs/interval.hpp"
#include "persist/atomic_file.hpp"
#include "persist/interval_stream.hpp"
#include "persist/journal.hpp"
#include "serve/ledger.hpp"
#include "serve/queue.hpp"

namespace msim {
namespace {

/// A fresh, empty temp directory, removed again when the test ends.
class TempDir {
 public:
  explicit TempDir(const std::string& stem)
      : path_((std::filesystem::temp_directory_path() /
               (stem + "-" + std::to_string(::getpid())))
                  .string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

void overwrite(const std::string& path, std::string_view bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// ---- 1. AppendLog ----------------------------------------------------------

/// Replays `path`, accepting a header "h" and every record but "bad";
/// `seen` collects the records offered.
std::optional<std::string> replay_hr(const std::string& path,
                                     std::vector<std::string>& seen) {
  return persist::AppendLog::replay(
      path,
      [](std::string_view line) {
        if (line != "h") throw std::domain_error("not an h log");
      },
      [&](std::string_view line) {
        seen.emplace_back(line);
        return line != "bad";
      });
}

TEST(AppendLog, ReplayKeepsTheBytesThroughTheLastAcceptedLine) {
  const TempDir dir("msim-applog-replay");
  const std::string path = dir.path() + "/log.jsonl";
  std::vector<std::string> seen;
  EXPECT_EQ(replay_hr(path, seen), std::nullopt) << "no file, no log";

  overwrite(path, "\nh\nr1\n\nr2\nbad\nr3\n");
  EXPECT_EQ(replay_hr(path, seen), "\nh\nr1\n\nr2\n");
  EXPECT_EQ(seen, (std::vector<std::string>{"r1", "r2", "bad"}))
      << "empty lines are skipped; nothing after a refused line is offered";

  seen.clear();
  overwrite(path, "h\nr1\nr2");  // torn: the last line has no '\n'
  EXPECT_EQ(replay_hr(path, seen), "h\nr1\n");
  EXPECT_EQ(seen, (std::vector<std::string>{"r1"}));
}

TEST(AppendLog, AFileWithoutAHeaderLineIsAPersistError) {
  const TempDir dir("msim-applog-noheader");
  const std::string path = dir.path() + "/log.jsonl";
  std::vector<std::string> seen;
  for (const char* content : {"", "\n\n", "h"}) {
    overwrite(path, content);
    EXPECT_THROW((void)replay_hr(path, seen), persist::PersistError)
        << "content: '" << content << "'";
  }
  EXPECT_TRUE(seen.empty());
}

TEST(AppendLog, ARefusingHeaderPropagates) {
  const TempDir dir("msim-applog-refuse");
  const std::string path = dir.path() + "/log.jsonl";
  overwrite(path, "not-h\nr1\n");
  std::vector<std::string> seen;
  EXPECT_THROW((void)replay_hr(path, seen), std::domain_error);
  EXPECT_TRUE(seen.empty()) << "no record is offered past a refused header";
}

TEST(AppendLog, SealLeavesOnlyTheFinalPath) {
  const TempDir dir("msim-applog-seal");
  {
    persist::AppendLog log(dir.path() + "/log.part", "h\n");
    log.append("r1\n");
    log.sync();
    log.append("r2\n");
    log.seal(dir.path() + "/log.jsonl");
  }
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"log.jsonl"});
  EXPECT_EQ(persist::read_file(dir.path() + "/log.jsonl"), "h\nr1\nr2\n");
}

// ---- 2. every crash point, all three logs ----------------------------------

/// Cuts `full` -- a header line plus three records -- at every byte length
/// from the end of the header to the full size and writes each cut to
/// `path`.  `reopen(k)` reopens the log, asserts it recovered exactly the k
/// records wholly inside the cut, appends one record, reopens again and
/// returns the log's text: k + 2 whole lines that must all parse.
void every_crash_point(const std::string& path, const std::string& full,
                       const std::function<std::string(std::size_t)>& reopen) {
  ASSERT_EQ(std::count(full.begin(), full.end(), '\n'), 4) << full;
  for (std::size_t cut = full.find('\n') + 1; cut <= full.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut) + " of " +
                 std::to_string(full.size()));
    overwrite(path, std::string_view(full).substr(0, cut));
    const auto whole = static_cast<std::size_t>(std::count(
                           full.begin(),
                           full.begin() + static_cast<std::ptrdiff_t>(cut),
                           '\n')) -
                       1;
    const std::string text = reopen(whole);
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
    std::istringstream in(text);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line); ++lines) {
      EXPECT_NO_THROW((void)JsonValue::parse(line)) << line;
    }
    EXPECT_EQ(lines, whole + 2);
    if (::testing::Test::HasFailure()) return;  // the first bad cut says it all
  }
}

TEST(EveryCrashPoint, SweepJournalResumesExactlyTheWholeCells) {
  const TempDir dir("msim-crash-journal");
  const std::string path = dir.path() + "/sweep.jsonl";
  constexpr std::uint64_t kFp = 0xfeed;
  const std::vector<std::string> cells = {"k/16/a", "k/16/b", "k/32/a"};
  {
    persist::SweepJournal journal(path, kFp, /*resume=*/false);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      journal.append(cells[i], {static_cast<std::uint8_t>(i)});
    }
  }
  every_crash_point(path, persist::read_file(path), [&](std::size_t whole) {
    {
      persist::SweepJournal journal(path, kFp, /*resume=*/true);
      EXPECT_EQ(journal.loaded_entries(), whole);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(journal.find(cells[i]) != nullptr, i < whole) << cells[i];
      }
      journal.append("k/32/b", {7});
    }
    const persist::SweepJournal journal(path, kFp, /*resume=*/true);
    EXPECT_EQ(journal.loaded_entries(), whole + 1);
    const auto* appended = journal.find("k/32/b");
    EXPECT_TRUE(appended != nullptr &&
                *appended == std::vector<std::uint8_t>{7});
    return persist::read_file(path);
  });
}

TEST(EveryCrashPoint, JobLedgerRecoversExactlyTheWholeRecords) {
  const TempDir dir("msim-crash-ledger");
  const std::string path = dir.path() + "/ledger.jsonl";
  const auto accept = [](serve::JobLedger& ledger, std::uint64_t id) {
    serve::Job job;
    job.id = id;
    ledger.record_accepted(job);
  };
  {
    serve::JobLedger ledger(dir.path());
    for (std::uint64_t id = 1; id <= 3; ++id) accept(ledger, id);
  }
  every_crash_point(path, persist::read_file(path), [&](std::size_t whole) {
    {
      serve::JobLedger ledger(dir.path());
      EXPECT_EQ(ledger.recovered().size(), whole);
      EXPECT_EQ(ledger.next_id(), whole + 1);
      accept(ledger, 9);
    }
    const serve::JobLedger ledger(dir.path());
    EXPECT_EQ(ledger.recovered().size(), whole + 1);
    EXPECT_TRUE(!ledger.recovered().empty() &&
                ledger.recovered().back().id == 9);
    return persist::read_file(path);
  });
}

TEST(EveryCrashPoint, IntervalStreamResumesAtEveryWholeRecord) {
  const TempDir dir("msim-crash-intervals");
  const std::string path = dir.path() + "/intervals.jsonl";
  const obs::IntervalConfig config{100, 16};
  const auto record = [](std::uint64_t i) {
    obs::IntervalRecord r;
    r.index = i;
    r.start_cycle = 100 * i;
    r.end_cycle = 100 * (i + 1);
    return r;
  };
  {
    persist::IntervalStreamWriter writer(path, config, 1, 0);
    for (std::uint64_t i = 0; i < 3; ++i) writer.append(record(i));
  }
  const std::string full = persist::read_file(path + ".part");
  every_crash_point(path + ".part", full, [&](std::size_t whole) {
    {
      // Resuming at the cursor of the whole records keeps exactly them.
      persist::IntervalStreamWriter writer(path, config, 1, whole);
      writer.append(record(9));
    }
    EXPECT_THROW(persist::IntervalStreamWriter(path, config, 1, whole + 2),
                 persist::PersistError)
        << "the cut holds only " << whole + 1 << " record(s)";
    persist::IntervalStreamWriter writer(path, config, 1, whole + 1);
    writer.finalize();
    std::string want = obs::format_interval_header(config, 1) + "\n";
    for (std::uint64_t i = 0; i < whole; ++i) {
      want += obs::format_interval_record(record(i)) + "\n";
    }
    want += obs::format_interval_record(record(9)) + "\n";
    const std::string text = persist::read_file(path);
    EXPECT_EQ(text, want);
    return text;
  });
}

}  // namespace
}  // namespace msim
