// Front-end branch prediction unit: per-thread gshare direction predictors
// over a shared BTB, as configured in Table 1 of the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bpred/btb.hpp"
#include "bpred/gshare.hpp"
#include "common/types.hpp"
#include "obs/registry.hpp"

namespace msim::persist {
class Archive;
}

namespace msim::bpred {

struct PredictorConfig {
  GshareConfig gshare{};
  BtbConfig btb{};
};

struct PredictorStats {
  std::uint64_t branches = 0;
  std::uint64_t mispredicts = 0;

  [[nodiscard]] double mispredict_rate() const noexcept {
    return branches ? static_cast<double>(mispredicts) / static_cast<double>(branches)
                    : 0.0;
  }
};

/// Prediction verdict for one branch, given its *actual* behaviour from the
/// trace.  In the default (stall) model the wrong path is not executed and
/// only correctness matters; with wrong-path modeling the predicted
/// direction and target steer the synthetic wrong-path fetch (see
/// DESIGN.md, "Trace-driven with real front-end effects").
class BranchPredictor {
 public:
  BranchPredictor(const PredictorConfig& config, unsigned thread_count);

  /// What the front end would do at a branch.
  struct Prediction {
    bool taken = false;        ///< predicted direction
    bool have_target = false;  ///< BTB supplied a target (when taken)
    Addr target = 0;           ///< predicted target (valid if have_target)
  };

  /// Predicts the branch at (`tid`, `pc`) and trains with the actual
  /// outcome.  Returns true when the front end followed the correct path:
  /// direction predicted correctly AND (if taken) the BTB supplied the
  /// correct target.
  bool predict_and_train(ThreadId tid, Addr pc, bool taken, Addr target);

  /// Like predict_and_train but also reports what the front end predicted
  /// (used to steer wrong-path fetch).
  Prediction predict_and_train_full(ThreadId tid, Addr pc, bool taken, Addr target,
                                    bool* correct_path);

  /// Pure lookup for wrong-path branches: no training, no stats (there is
  /// no architectural outcome to train with).
  [[nodiscard]] Prediction predict_only(ThreadId tid, Addr pc);

  [[nodiscard]] const PredictorStats& stats(ThreadId tid) const {
    return stats_.at(tid);
  }
  [[nodiscard]] PredictorStats total_stats() const noexcept;

  /// Zeroes counters; predictor training state is preserved.
  void reset_stats() noexcept {
    for (auto& s : stats_) s = {};
    for (auto& g : gshare_) g.reset_stats();
    btb_.reset_stats();
  }
  [[nodiscard]] const Btb& btb() const noexcept { return btb_; }
  [[nodiscard]] const Gshare& gshare(ThreadId tid) const { return gshare_.at(tid); }

  /// Appends aggregate and per-thread metrics to `out` under `prefix`
  /// (e.g. "bpred.").
  void append_metrics(std::vector<obs::MetricSnapshot>& out,
                      const std::string& prefix) const;

  /// Checkpoint support: training state (counters, history, BTB entries,
  /// LRU ticks) and statistics both round-trip.
  void state_io(persist::Archive& ar);

 private:
  std::vector<Gshare> gshare_;  ///< one per thread (Table 1)
  Btb btb_;                     ///< shared
  std::vector<PredictorStats> stats_;
};

}  // namespace msim::bpred
