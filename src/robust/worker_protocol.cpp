#include "robust/worker_protocol.hpp"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common/archive.hpp"

namespace msim::robust {

namespace {

/// The kCellDone fields, streamed in both directions by one function so
/// the encoder and the decoder cannot drift apart.
void io_cell_done(persist::Archive& ar, std::uint64_t& cell, CellOutcome& outcome) {
  ar.io(cell);
  ar.io(outcome.ok);
  ar.io(outcome.attempts);
  ar.io(outcome.error);
  ar.io(outcome.payload);
}

}  // namespace

std::vector<std::uint8_t> encode_cell_start(std::uint64_t cell) {
  persist::Archive ar = persist::Archive::saver();
  ar.io(cell);
  return ar.bytes();
}

std::uint64_t decode_cell_start(const std::vector<std::uint8_t>& payload) {
  persist::Archive ar = persist::Archive::loader(payload);
  std::uint64_t cell = 0;
  ar.io(cell);
  ar.expect_end();
  return cell;
}

std::vector<std::uint8_t> encode_cell_done(std::uint64_t cell,
                                           const CellOutcome& outcome) {
  persist::Archive ar = persist::Archive::saver();
  io_cell_done(ar, cell, const_cast<CellOutcome&>(outcome));
  return ar.bytes();
}

std::pair<std::uint64_t, CellOutcome> decode_cell_done(
    const std::vector<std::uint8_t>& payload) {
  persist::Archive ar = persist::Archive::loader(payload);
  std::pair<std::uint64_t, CellOutcome> out;
  io_cell_done(ar, out.first, out.second);
  ar.expect_end();
  return out;
}

void encode_frame(WorkerMsg type, const std::vector<std::uint8_t>& payload,
                  std::vector<std::uint8_t>& out) {
  const auto len = static_cast<std::uint32_t>(payload.size() + 1);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  }
  out.push_back(static_cast<std::uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameReader::next() {
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) return std::nullopt;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(buf_[consumed_ + static_cast<std::size_t>(i)])
           << (8 * i);
  }
  if (len == 0) throw std::runtime_error("worker protocol: zero-length frame");
  if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  Frame frame;
  frame.type = static_cast<WorkerMsg>(buf_[consumed_ + 4]);
  frame.payload.assign(
      buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 5),
      buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4 + len));
  consumed_ += 4 + static_cast<std::size_t>(len);
  return frame;
}

bool write_frame(int fd, WorkerMsg type,
                 const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> wire;
  wire.reserve(payload.size() + 5);
  encode_frame(type, payload, wire);
  std::size_t written = 0;
  while (written < wire.size()) {
    const ::ssize_t n = ::write(fd, wire.data() + written, wire.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE and friends: the supervisor is gone
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

const WorkerFault* ChaosPlan::fault_for(std::uint64_t cell) const noexcept {
  for (const WorkerFault& f : faults) {
    if (f.cell == cell) return &f;
  }
  return nullptr;
}

ChaosPlan ChaosPlan::parse(const std::string& spec) {
  ChaosPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::size_t end = comma == std::string::npos ? spec.size() : comma;
    std::string item = spec.substr(start, end - start);
    if (!item.empty()) {
      WorkerFault fault;
      if (!item.empty() && item.back() == '!') {
        fault.persistent = true;
        item.pop_back();
      }
      const std::size_t at = item.find('@');
      if (at == std::string::npos) {
        throw std::invalid_argument(
            "chaos: item '" + item +
            "' is not ACTION@CELL (e.g. kill@5, segv@13, hang@21, kill@2!)");
      }
      const std::string action = item.substr(0, at);
      if (action == "kill") {
        fault.action = WorkerFault::Action::kKill;
      } else if (action == "segv") {
        fault.action = WorkerFault::Action::kSegv;
      } else if (action == "hang") {
        fault.action = WorkerFault::Action::kHang;
      } else {
        throw std::invalid_argument("chaos: unknown action '" + action +
                                    "' (kill | segv | hang)");
      }
      const std::string cell = item.substr(at + 1);
      const auto [last, ec] =
          std::from_chars(cell.data(), cell.data() + cell.size(), fault.cell);
      if (ec != std::errc{} || last != cell.data() + cell.size()) {
        throw std::invalid_argument("chaos: '" + cell +
                                    "' is not a grid cell index");
      }
      if (plan.fault_for(fault.cell) != nullptr) {
        throw std::invalid_argument("chaos: duplicate fault for cell " + cell);
      }
      plan.faults.push_back(fault);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return plan;
}

void perform_worker_fault(const WorkerFault& fault,
                          const std::function<void()>& stop_heartbeat) {
  switch (fault.action) {
    case WorkerFault::Action::kKill:
      (void)::raise(SIGKILL);
      break;
    case WorkerFault::Action::kSegv:
      (void)::raise(SIGSEGV);
      break;
    case WorkerFault::Action::kHang:
      break;
  }
  // kHang (or a raise that somehow returned): go dark.  The supervisor's
  // missed-heartbeat detector must SIGKILL this process.
  if (stop_heartbeat) stop_heartbeat();
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

}  // namespace msim::robust
