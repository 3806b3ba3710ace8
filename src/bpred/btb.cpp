#include "bpred/btb.hpp"

#include "common/archive.hpp"
#include "common/check.hpp"

namespace msim::bpred {

Btb::Btb(const BtbConfig& config)
    : config_(config), set_count_(config.entries / config.assoc) {
  MSIM_CHECK(config_.assoc > 0);
  MSIM_CHECK(config_.entries % config_.assoc == 0);
  MSIM_CHECK(set_count_ > 0 && (set_count_ & (set_count_ - 1)) == 0);
  entries_.resize(config_.entries);
}

Addr Btb::make_tag(ThreadId tid, Addr pc) const noexcept {
  return (pc >> 2) ^ (static_cast<Addr>(tid) << 40);
}

std::size_t Btb::set_of(Addr tag) const noexcept {
  return static_cast<std::size_t>(tag & (set_count_ - 1));
}

std::optional<Addr> Btb::lookup(ThreadId tid, Addr pc) {
  ++stats_.lookups;
  ++tick_;
  const Addr tag = make_tag(tid, pc);
  Entry* base = &entries_[set_of(tag) * config_.assoc];
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    Entry& e = base[w];
    if (e.valid && e.tag == tag) {
      e.last_used = tick_;
      ++stats_.hits;
      return e.target;
    }
  }
  return std::nullopt;
}

void Btb::update(ThreadId tid, Addr pc, Addr target) {
  ++tick_;
  const Addr tag = make_tag(tid, pc);
  Entry* base = &entries_[set_of(tag) * config_.assoc];
  Entry* victim = base;
  for (std::uint32_t w = 0; w < config_.assoc; ++w) {
    Entry& e = base[w];
    if (e.valid && e.tag == tag) {
      e.target = target;
      e.last_used = tick_;
      return;
    }
    if (!e.valid) {
      victim = &e;
    } else if (victim->valid && e.last_used < victim->last_used) {
      victim = &e;
    }
  }
  *victim = {.tag = tag, .target = target, .last_used = tick_, .valid = true};
}

void Btb::state_io(persist::Archive& ar) {
  ar.section("btb");
  ar.io_sequence(entries_, [](persist::Archive& a, Entry& e) {
    a.io(e.tag);
    a.io(e.target);
    a.io(e.last_used);
    a.io(e.valid);
  });
  ar.io(tick_);
  ar.io(stats_.lookups);
  ar.io(stats_.hits);
}

}  // namespace msim::bpred
