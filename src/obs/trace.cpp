#include "obs/trace.hpp"

#include "common/archive.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

namespace msim::obs {

std::string_view trace_stage_name(TraceStage stage) noexcept {
  switch (stage) {
    case TraceStage::kFetch:     return "fetch";
    case TraceStage::kRename:    return "rename";
    case TraceStage::kDispatch:  return "dispatch";
    case TraceStage::kDabInsert: return "dab_insert";
    case TraceStage::kIssue:     return "issue";
    case TraceStage::kWriteback: return "writeback";
    case TraceStage::kCommit:    return "commit";
    case TraceStage::kSquash:    return "squash";
  }
  return "unknown";
}

std::vector<TraceEvent> InstTracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(live_);
  // Oldest retained event sits at head_ once the ring has wrapped.
  const std::size_t start = live_ < ring_.size() ? 0 : head_;
  for (std::size_t i = 0; i < live_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<InstLifecycle> reconstruct_lifecycles(std::span<const TraceEvent> events) {
  std::vector<InstLifecycle> out;
  // (tid, seq) -> index of the open record in `out`.
  std::map<std::pair<ThreadId, SeqNum>, std::size_t> open;

  for (const TraceEvent& ev : events) {
    const auto key = std::make_pair(ev.tid, ev.seq);
    auto it = open.find(key);
    // A watchdog or FLUSH replay re-fetches the same sequence number: a
    // fetch after a terminal event (or a duplicate fetch) opens a fresh
    // lifecycle for the new attempt.
    const bool reopen =
        it != open.end() && ev.stage == TraceStage::kFetch &&
        (out[it->second].committed() || out[it->second].squashed() ||
         out[it->second].fetch != kCycleNever);
    if (it == open.end() || reopen) {
      InstLifecycle fresh;
      fresh.tid = ev.tid;
      fresh.seq = ev.seq;
      out.push_back(fresh);
      if (it == open.end()) {
        it = open.emplace(key, out.size() - 1).first;
      } else {
        it->second = out.size() - 1;
      }
    }
    InstLifecycle& lc = out[it->second];
    if (ev.flags & kTraceFlagWrongPath) lc.wrong_path = true;
    if (ev.flags & kTraceFlagMispredict) lc.mispredict = true;
    switch (ev.stage) {
      case TraceStage::kFetch:     lc.fetch = ev.cycle; break;
      case TraceStage::kRename:    lc.rename = ev.cycle; break;
      case TraceStage::kDispatch:
        lc.dispatch = ev.cycle;
        if (ev.flags & kTraceFlagOooBypass) lc.ooo_bypass = true;
        break;
      case TraceStage::kDabInsert:
        lc.dispatch = ev.cycle;
        lc.dab_rescued = true;
        break;
      case TraceStage::kIssue:
        lc.issue = ev.cycle;
        if (ev.flags & kTraceFlagFromDab) lc.dab_rescued = true;
        break;
      case TraceStage::kWriteback: lc.writeback = ev.cycle; break;
      case TraceStage::kCommit:    lc.commit = ev.cycle; break;
      case TraceStage::kSquash:    lc.squash = ev.cycle; break;
    }
  }
  return out;
}

namespace {

/// One Konata output line pinned to a cycle; `order` breaks ties so stage
/// starts precede retirements recorded in the same cycle.
struct KonataCmd {
  Cycle cycle;
  int order;
  std::string text;
};

void add_stage(std::vector<KonataCmd>& cmds, Cycle cycle, std::size_t id,
               std::string_view stage) {
  cmds.push_back({cycle, 1,
                  "S\t" + std::to_string(id) + "\t0\t" + std::string(stage)});
}

}  // namespace

void write_konata(std::ostream& os, std::span<const TraceEvent> events) {
  const std::vector<InstLifecycle> lifecycles = reconstruct_lifecycles(events);
  std::vector<KonataCmd> cmds;

  // Retirement ids must be unique and ordered; sort terminals by cycle.
  std::vector<std::size_t> terminal_order;
  for (std::size_t i = 0; i < lifecycles.size(); ++i) {
    if (lifecycles[i].committed() || lifecycles[i].squashed()) {
      terminal_order.push_back(i);
    }
  }
  std::sort(terminal_order.begin(), terminal_order.end(),
            [&](std::size_t a, std::size_t b) {
              const Cycle ca = lifecycles[a].committed() ? lifecycles[a].commit
                                                         : lifecycles[a].squash;
              const Cycle cb = lifecycles[b].committed() ? lifecycles[b].commit
                                                         : lifecycles[b].squash;
              return ca != cb ? ca < cb : a < b;
            });
  std::vector<std::size_t> retire_id(lifecycles.size(), 0);
  for (std::size_t r = 0; r < terminal_order.size(); ++r) {
    retire_id[terminal_order[r]] = r + 1;
  }

  for (std::size_t id = 0; id < lifecycles.size(); ++id) {
    const InstLifecycle& lc = lifecycles[id];
    const Cycle first = std::min({lc.fetch, lc.rename, lc.dispatch, lc.issue,
                                  lc.writeback, lc.commit, lc.squash});
    if (first == kCycleNever) continue;
    cmds.push_back({first, 0,
                    "I\t" + std::to_string(id) + "\t" + std::to_string(lc.seq) +
                        "\t" + std::to_string(lc.tid)});
    std::string label = "T" + std::to_string(lc.tid) + " #" + std::to_string(lc.seq);
    if (lc.dab_rescued) label += " [DAB]";
    if (lc.ooo_bypass) label += " [OOO]";
    if (lc.wrong_path) label += " [WP]";
    if (lc.mispredict) label += " [MISP]";
    cmds.push_back({first, 0, "L\t" + std::to_string(id) + "\t0\t" + label});

    if (lc.fetch != kCycleNever) add_stage(cmds, lc.fetch, id, "F");
    if (lc.rename != kCycleNever) add_stage(cmds, lc.rename, id, "R");
    if (lc.dispatch != kCycleNever) {
      add_stage(cmds, lc.dispatch, id, lc.dab_rescued ? "DAB" : "Dp");
    }
    if (lc.issue != kCycleNever) add_stage(cmds, lc.issue, id, "Is");
    if (lc.writeback != kCycleNever) add_stage(cmds, lc.writeback, id, "Wb");
    if (lc.committed()) {
      cmds.push_back({lc.commit, 2,
                      "R\t" + std::to_string(id) + "\t" +
                          std::to_string(retire_id[id]) + "\t0"});
    } else if (lc.squashed()) {
      cmds.push_back({lc.squash, 2,
                      "R\t" + std::to_string(id) + "\t" +
                          std::to_string(retire_id[id]) + "\t1"});
    }
  }

  std::stable_sort(cmds.begin(), cmds.end(), [](const KonataCmd& a, const KonataCmd& b) {
    return a.cycle != b.cycle ? a.cycle < b.cycle : a.order < b.order;
  });

  os << "Kanata\t0004\n";
  if (cmds.empty()) return;
  Cycle current = cmds.front().cycle;
  os << "C=\t" << current << "\n";
  for (const KonataCmd& cmd : cmds) {
    if (cmd.cycle > current) {
      os << "C\t" << (cmd.cycle - current) << "\n";
      current = cmd.cycle;
    }
    os << cmd.text << "\n";
  }
}

void write_gantt(std::ostream& os, std::span<const TraceEvent> events,
                 std::size_t max_rows) {
  const std::vector<InstLifecycle> lifecycles = reconstruct_lifecycles(events);
  if (lifecycles.empty()) {
    os << "(empty trace)\n";
    return;
  }
  Cycle lo = kCycleNever;
  Cycle hi = 0;
  for (const InstLifecycle& lc : lifecycles) {
    for (const Cycle c : {lc.fetch, lc.rename, lc.dispatch, lc.issue, lc.writeback,
                          lc.commit, lc.squash}) {
      if (c == kCycleNever) continue;
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
  }
  constexpr std::size_t kMaxCols = 160;
  const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
  const std::size_t cols = std::min(span, kMaxCols);
  os << "cycles " << lo << ".." << (lo + cols - 1)
     << (span > cols ? " (window truncated)" : "") << ", "
     << lifecycles.size() << " instruction(s)"
     << (lifecycles.size() > max_rows ? " (rows truncated)" : "") << "\n";
  os << "F=fetch R=rename D=dispatch B=DAB-insert I=issue ==in-flight "
        "W=writeback C=commit x=squash\n";

  std::size_t rows = 0;
  for (const InstLifecycle& lc : lifecycles) {
    if (rows++ >= max_rows) break;
    std::string row(cols, '.');
    auto put = [&](Cycle c, char ch) {
      if (c == kCycleNever || c < lo) return;
      const auto col = static_cast<std::size_t>(c - lo);
      if (col < cols) row[col] = ch;
    };
    // Fill issue -> writeback first so the stage letters overwrite it.
    if (lc.issue != kCycleNever && lc.writeback != kCycleNever) {
      for (Cycle c = lc.issue; c <= lc.writeback; ++c) put(c, '=');
    }
    put(lc.fetch, 'F');
    put(lc.rename, 'R');
    put(lc.dispatch, lc.dab_rescued ? 'B' : 'D');
    put(lc.issue, 'I');
    put(lc.writeback, 'W');
    put(lc.commit, 'C');
    put(lc.squash, 'x');
    char meta[64];
    std::snprintf(meta, sizeof meta, "T%u #%-8llu %s", unsigned{lc.tid},
                  static_cast<unsigned long long>(lc.seq),
                  lc.dab_rescued ? "DAB " : (lc.ooo_bypass ? "OOO " : "    "));
    os << meta << row << "\n";
  }
}

void InstTracer::state_io(persist::Archive& ar) {
  ar.section("inst-tracer");
  ar.io_sequence(ring_, [](persist::Archive& a, TraceEvent& e) {
    a.io(e.cycle);
    a.io(e.seq);
    a.io(e.tid);
    a.io(e.stage);
    a.io(e.flags);
  });
  std::uint64_t head = head_;
  std::uint64_t live = live_;
  ar.io(head);
  ar.io(live);
  head_ = static_cast<std::size_t>(head);
  live_ = static_cast<std::size_t>(live);
  ar.io(dropped_);
}

}  // namespace msim::obs
