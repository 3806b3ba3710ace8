#include "bpred/gshare.hpp"

#include "common/archive.hpp"
#include "common/check.hpp"

namespace msim::bpred {

Gshare::Gshare(const GshareConfig& config)
    : config_(config),
      counters_(config.table_entries, 2),  // weakly taken
      history_mask_((1u << config.history_bits) - 1) {
  MSIM_CHECK(config_.table_entries > 0 &&
             (config_.table_entries & (config_.table_entries - 1)) == 0);
  MSIM_CHECK(config_.history_bits > 0 && config_.history_bits <= 20);
}

std::size_t Gshare::index(Addr pc) const noexcept {
  // Drop the 2 low (alignment) bits, fold in the history.
  const auto folded = static_cast<std::uint32_t>(pc >> 2) ^ history_;
  return folded & (config_.table_entries - 1);
}

bool Gshare::predict(Addr pc) const noexcept { return counters_[index(pc)] >= 2; }

bool Gshare::update(Addr pc, bool taken) noexcept {
  const std::size_t idx = index(pc);
  const bool predicted = counters_[idx] >= 2;
  ++stats_.lookups;
  if (predicted == taken) ++stats_.correct;
  if (taken) {
    if (counters_[idx] < 3) ++counters_[idx];
  } else {
    if (counters_[idx] > 0) --counters_[idx];
  }
  history_ = ((history_ << 1) | (taken ? 1u : 0u)) & history_mask_;
  return predicted == taken;
}

void Gshare::state_io(persist::Archive& ar) {
  ar.section("gshare");
  ar.io(counters_);
  ar.io(history_);
  ar.io(stats_.lookups);
  ar.io(stats_.correct);
}

}  // namespace msim::bpred
