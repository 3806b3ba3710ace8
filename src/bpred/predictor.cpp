#include "bpred/predictor.hpp"

#include "common/archive.hpp"
#include "common/check.hpp"

namespace msim::bpred {

BranchPredictor::BranchPredictor(const PredictorConfig& config, unsigned thread_count)
    : btb_(config.btb) {
  MSIM_CHECK(thread_count >= 1 && thread_count <= kMaxThreads);
  gshare_.reserve(thread_count);
  stats_.resize(thread_count);
  for (unsigned t = 0; t < thread_count; ++t) {
    gshare_.emplace_back(config.gshare);
  }
}

bool BranchPredictor::predict_and_train(ThreadId tid, Addr pc, bool taken, Addr target) {
  bool correct = false;
  (void)predict_and_train_full(tid, pc, taken, target, &correct);
  return correct;
}

BranchPredictor::Prediction BranchPredictor::predict_and_train_full(
    ThreadId tid, Addr pc, bool taken, Addr target, bool* correct_path) {
  Gshare& dir = gshare_.at(tid);
  Prediction out;
  out.taken = dir.predict(pc);
  dir.update(pc, taken);
  if (out.taken) {
    const auto btb_target = btb_.lookup(tid, pc);
    out.have_target = btb_target.has_value();
    out.target = btb_target.value_or(0);
  }

  bool correct = out.taken == taken;
  if (correct && taken) {
    // Direction right, but the front end also needs the target address.
    correct = out.have_target && out.target == target;
  }
  if (taken) {
    btb_.update(tid, pc, target);
  }

  PredictorStats& s = stats_.at(tid);
  ++s.branches;
  if (!correct) ++s.mispredicts;
  *correct_path = correct;
  return out;
}

BranchPredictor::Prediction BranchPredictor::predict_only(ThreadId tid, Addr pc) {
  Prediction out;
  out.taken = gshare_.at(tid).predict(pc);
  if (out.taken) {
    const auto btb_target = btb_.lookup(tid, pc);
    out.have_target = btb_target.has_value();
    out.target = btb_target.value_or(0);
  }
  return out;
}

void BranchPredictor::append_metrics(std::vector<obs::MetricSnapshot>& out,
                                     const std::string& prefix) const {
  const PredictorStats total = total_stats();
  obs::append_counter(out, prefix + "branches", total.branches);
  obs::append_counter(out, prefix + "mispredicts", total.mispredicts);
  obs::append_ratio(out, prefix + "mispredict_rate", total.mispredicts, total.branches);
  for (std::size_t t = 0; t < stats_.size(); ++t) {
    const std::string p = prefix + "thread." + std::to_string(t) + ".";
    obs::append_counter(out, p + "branches", stats_[t].branches);
    obs::append_ratio(out, p + "mispredict_rate", stats_[t].mispredicts,
                      stats_[t].branches);
  }
}

PredictorStats BranchPredictor::total_stats() const noexcept {
  PredictorStats total;
  for (const PredictorStats& s : stats_) {
    total.branches += s.branches;
    total.mispredicts += s.mispredicts;
  }
  return total;
}

void BranchPredictor::state_io(persist::Archive& ar) {
  ar.section("bpred");
  // Thread count is construction-time configuration; loading into a
  // predictor of a different shape is a config mismatch, not a resize.
  for (Gshare& g : gshare_) g.state_io(ar);
  btb_.state_io(ar);
  ar.io_sequence(stats_, [](persist::Archive& a, PredictorStats& s) {
    a.io(s.branches);
    a.io(s.mispredicts);
  });
}

}  // namespace msim::bpred
