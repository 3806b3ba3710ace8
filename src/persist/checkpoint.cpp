#include "persist/checkpoint.hpp"

#include <cstdint>
#include <vector>

#include "common/archive.hpp"
#include "common/json.hpp"
#include "persist/atomic_file.hpp"
#include "smt/pipeline.hpp"

namespace msim::persist {

namespace {

constexpr const char* kMagic = "msim-checkpoint";

}  // namespace

void save_checkpoint(const std::string& path, const smt::Pipeline& pipe,
                     const CheckpointMeta& meta) {
  Archive ar = Archive::saver();
  std::string magic = kMagic;
  ar.io(magic);
  std::uint32_t version = kCheckpointFormatVersion;
  ar.io(version);
  std::uint64_t fingerprint = meta.config_fingerprint;
  ar.io(fingerprint);
  auto phase = static_cast<std::uint8_t>(meta.phase);
  ar.io(phase);
  pipe.save_state(ar);
  write_file_atomic(path, ar.bytes());
}

CheckpointMeta load_checkpoint(const std::string& path, smt::Pipeline& pipe,
                               std::uint64_t expected_fingerprint) {
  std::string raw;
  try {
    raw = read_file(path);
  } catch (const std::exception& e) {
    // Unreadable resume file is a persistence failure like any other: same
    // exception type, so callers triage one way (docs/CHECKPOINT.md).
    throw PersistError(std::string("cannot read checkpoint: ") + e.what());
  }
  Archive ar = Archive::loader(
      std::vector<std::uint8_t>(raw.begin(), raw.end()));
  std::string magic;
  ar.io(magic);
  if (magic != kMagic) {
    throw PersistError("'" + path + "' is not a msim checkpoint file");
  }
  std::uint32_t version = 0;
  ar.io(version);
  if (version != kCheckpointFormatVersion) {
    throw PersistError(
        "'" + path + "' has checkpoint format version " +
        std::to_string(version) + " but this binary writes version " +
        std::to_string(kCheckpointFormatVersion) +
        "; re-run from scratch or use a matching build (docs/CHECKPOINT.md)");
  }
  std::uint64_t fingerprint = 0;
  ar.io(fingerprint);
  if (fingerprint != expected_fingerprint) {
    throw PersistError(
        "'" + path + "' was written for configuration fingerprint " +
        hex_u64(fingerprint) + " but the current run has " +
        hex_u64(expected_fingerprint) +
        "; a checkpoint only resumes the exact configuration, workload and "
        "seed it was saved from (docs/CHECKPOINT.md)");
  }
  std::uint8_t phase = 0;
  ar.io(phase);
  if (phase > static_cast<std::uint8_t>(RunPhase::kMeasure)) {
    throw PersistError("'" + path + "' has an invalid run phase byte");
  }
  pipe.load_state(ar);
  ar.expect_end();
  return CheckpointMeta{fingerprint, static_cast<RunPhase>(phase)};
}

}  // namespace msim::persist
