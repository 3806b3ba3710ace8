// Pipe protocol between sweep worker processes and their supervisor.
//
// A worker talks to the supervisor over a unidirectional pipe using framed
// binary messages: [u32 length][u8 type][payload].  The length covers the
// type byte plus the payload, so a reader can skip unknown types.  Frames
// are written with a single write() when they fit PIPE_BUF and a retry loop
// otherwise; the supervisor reassembles them from whatever chunk sizes
// poll()+read() deliver (FrameReader).  Payloads are persist::Archive
// streams (common/archive.hpp), so a truncated or corrupt payload fails
// with PersistError like any other bad Archive.  Everything here is
// transport: the supervisor decides what the messages *mean*
// (supervisor.hpp).
//
// The chaos plan also lives here: a deterministic fault-injection schedule
// for worker processes ("SIGKILL yourself before grid cell 7"), used by the
// chaos tests and the chaos-sweep-smoke CI job to prove the supervision
// machinery actually supervises.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace msim::robust {

/// Worker-to-supervisor message types.
enum class WorkerMsg : std::uint8_t {
  kCellStart = 2,  ///< about to run a cell: encode_cell_start
  kHeartbeat = 3,  ///< liveness tick, empty payload
  kCellDone = 4,   ///< cell finished: encode_cell_done
  kShardDone = 5,  ///< every assigned cell is done; worker exits 0 next
};

/// What one cell produced inside a worker.  `payload` is opaque to the
/// supervisor and only meaningful when `ok`; `attempts`/`error` describe
/// in-worker (isolated-cell) retries, which are invisible to the
/// supervisor's own death accounting.
struct CellOutcome {
  bool ok = true;
  std::string error;
  std::uint32_t attempts = 1;
  std::vector<std::uint8_t> payload;
};

/// kCellStart payload: the grid index.
[[nodiscard]] std::vector<std::uint8_t> encode_cell_start(std::uint64_t cell);
[[nodiscard]] std::uint64_t decode_cell_start(const std::vector<std::uint8_t>& payload);

/// kCellDone payload: the grid index and what the cell produced.
[[nodiscard]] std::vector<std::uint8_t> encode_cell_done(std::uint64_t cell,
                                                         const CellOutcome& outcome);
[[nodiscard]] std::pair<std::uint64_t, CellOutcome> decode_cell_done(
    const std::vector<std::uint8_t>& payload);

/// One decoded frame.
struct Frame {
  WorkerMsg type = WorkerMsg::kHeartbeat;
  std::vector<std::uint8_t> payload;
};

/// Appends `frame` to `out` in wire format.
void encode_frame(WorkerMsg type, const std::vector<std::uint8_t>& payload,
                  std::vector<std::uint8_t>& out);

/// Incremental frame reassembly for one pipe: feed() whatever read()
/// returned, next() yields complete frames until the buffer runs dry.
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  [[nodiscard]] std::optional<Frame> next();

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;
};

/// Writes one frame to `fd`, retrying on EINTR and short writes.  Returns
/// false when the supervisor end is gone (EPIPE): the worker is orphaned
/// and should exit rather than compute into the void.
[[nodiscard]] bool write_frame(int fd, WorkerMsg type,
                               const std::vector<std::uint8_t>& payload);

// ---- chaos plan ------------------------------------------------------------

/// One injected worker fault: before running grid cell `cell`, the worker
/// performs `action`.  Non-persistent faults fire only in a worker slot's
/// first incarnation, so the respawned worker retries the cell cleanly and
/// the sweep's surviving cells stay byte-identical to a fault-free run;
/// persistent faults fire every attempt and drive the cell into
/// `failed_cells` once its retries are exhausted.
struct WorkerFault {
  enum class Action : std::uint8_t {
    kKill,  ///< raise(SIGKILL): instant death, nothing flushed
    kSegv,  ///< raise(SIGSEGV): a real crash signal (asan turns it into a
            ///< nonzero exit; either way the supervisor sees a death)
    kHang,  ///< stop heartbeating and sleep: the missed-heartbeat detector
            ///< must SIGKILL the worker
  };
  Action action = Action::kKill;
  std::uint64_t cell = 0;
  bool persistent = false;
};

/// Parsed `chaos=` specification: comma-separated `ACTION@CELL` items with
/// an optional trailing `!` for persistent faults, e.g.
/// `kill@5,segv@13,hang@21,kill@2!`.  CELL is the fixed grid index
/// (kind-major x iq x mix), so a plan addresses the same cell at any
/// `workers=` count.
struct ChaosPlan {
  std::vector<WorkerFault> faults;

  [[nodiscard]] bool empty() const noexcept { return faults.empty(); }

  /// The fault registered for `cell`, or nullptr.
  [[nodiscard]] const WorkerFault* fault_for(std::uint64_t cell) const noexcept;

  /// Throws std::invalid_argument on malformed specs or duplicate cells.
  static ChaosPlan parse(const std::string& spec);
};

/// Executes `fault` in the worker process (does not return for kKill/kSegv;
/// kHang parks the calling thread forever).  `stop_heartbeat` is invoked
/// first so a hanging worker goes dark instead of beating on.
[[noreturn]] void perform_worker_fault(const WorkerFault& fault,
                                       const std::function<void()>& stop_heartbeat);

}  // namespace msim::robust
