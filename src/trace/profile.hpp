// Statistical benchmark profiles: the synthetic stand-ins for the SPEC
// CPU2000 binaries the paper simulates (which are licensing-gated).
//
// Each profile parameterizes the trace generator: instruction-class mix,
// register dependency distances, operand readiness, memory footprint and
// locality, code footprint, and branch predictability.  Profiles are
// calibrated so that single-threaded IPC ranks the benchmarks into the
// low / medium / high ILP classes the paper's workload tables use
// (low = memory-bound, high = execution-bound).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "isa/opclass.hpp"

namespace msim::trace {

/// The paper's three-way benchmark classification (Section 2).
enum class IlpClass : std::uint8_t { kLow, kMedium, kHigh };

[[nodiscard]] std::string_view ilp_class_name(IlpClass c) noexcept;

/// Statistical description of one benchmark's dynamic behaviour.
struct BenchmarkProfile {
  std::string_view name;
  IlpClass ilp = IlpClass::kMedium;

  /// Relative dynamic frequency of each OpClass (indexed by OpClass value).
  /// kBranch weight determines the mean basic-block length.
  std::array<double, isa::kOpClassCount> op_weights{};

  /// Probability that an ALU-type instruction carries a second register
  /// source operand (first operand probability is implicit: see
  /// far_operand_frac).
  double two_source_frac = 0.6;

  /// Fraction of register source operands that reference a value produced
  /// long ago (effectively always ready at dispatch: immediates, loop
  /// invariants, globals).
  double far_operand_frac = 0.35;

  /// Of the remaining (near) operands: probability the dependence distance
  /// is drawn from the short geometric component.
  double dep_near_frac = 0.7;
  /// Geometric success parameter of the short component; mean distance is
  /// 1 + (1-p)/p producer instructions.
  double dep_near_p = 0.45;
  /// Geometric parameter of the long component.
  double dep_far_p = 0.12;

  /// Probability that a load's address operand is an old (long-distance or
  /// loop-invariant) value.  High for array/streaming codes whose indices
  /// are known early -- these expose memory-level parallelism to deep
  /// windows -- and low for pointer-chasing codes whose address depends on
  /// the previous load.
  double load_addr_old_frac = 0.5;

  /// Fraction of loads whose destination is a floating-point register.
  double fp_load_frac = 0.0;
  /// Fraction of stores whose data operand is a floating-point register.
  double fp_store_frac = 0.0;

  /// Data working-set size in bytes; accesses outside the hot/warm/stream
  /// components are uniform over this region.
  std::uint64_t data_footprint = 1u << 20;
  /// Fraction of memory accesses hitting a small (4 KB) hot region (stack,
  /// locals).  High values keep L1D miss rates low.
  double hot_frac = 0.45;
  /// Fraction of accesses to a warm, mostly-L1-resident region (current
  /// objects / rows).
  double warm_frac = 0.25;
  /// Size of the warm region (clamped to the footprint).
  std::uint64_t warm_bytes = 24u << 10;
  /// Fraction of accesses following sequential streams through the
  /// footprint (unit-stride array sweeps).
  double stream_frac = 0.2;
  /// Stream stride in bytes.
  std::uint32_t stream_stride = 8;
  /// Number of concurrent streams.
  std::uint32_t stream_count = 4;

  /// Unique code bytes; determines I-cache behaviour (4 bytes/instruction).
  std::uint64_t code_footprint = 64u << 10;

  /// Fraction of static conditional branches that are predictable: half of
  /// them loop-style (deterministic trip patterns), half statically biased
  /// (0.97 toward their preferred direction).  The rest get a bias drawn
  /// uniformly from [0.35, 0.65] and are genuinely hard to predict.
  double branch_predictable_frac = 0.85;
  /// Mean loop trip count for loop-style branches: one predictor miss per
  /// trip, so long trips (FP loop nests) predict much better than short
  /// ones (integer control flow).
  double mean_loop_trip = 16.0;
  /// Fraction of static branches that are unconditional (always taken,
  /// fixed target: jumps/calls folded together).
  double branch_uncond_frac = 0.15;

  [[nodiscard]] double branch_weight() const noexcept {
    return op_weights[static_cast<std::size_t>(isa::OpClass::kBranch)];
  }

  friend bool operator==(const BenchmarkProfile&, const BenchmarkProfile&) = default;
};

/// All benchmark profiles, in a fixed order.  24 entries named after the
/// SPEC CPU2000 benchmarks appearing in the paper's Tables 2-4.
[[nodiscard]] std::span<const BenchmarkProfile> all_profiles() noexcept;

/// Looks up a profile by name; nullopt when unknown.
[[nodiscard]] std::optional<BenchmarkProfile> find_profile(std::string_view name) noexcept;

/// Like find_profile but throws std::invalid_argument for unknown names.
[[nodiscard]] const BenchmarkProfile& profile_or_throw(std::string_view name);

}  // namespace msim::trace
