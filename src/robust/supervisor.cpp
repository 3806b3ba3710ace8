#include "robust/supervisor.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/json.hpp"
#include "obs/progress.hpp"
#include "persist/signal.hpp"

namespace msim::robust {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kNoCell = ~std::uint64_t{0};

/// Clamped at zero: `then` may postdate `now` (a message stamped mid-loop
/// against a now captured at the top), and a negative duration cast to
/// unsigned would read as an enormous silence.
std::uint64_t ms_since(Clock::time_point then, Clock::time_point now) {
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - then).count();
  return ms > 0 ? static_cast<std::uint64_t>(ms) : 0;
}

/// Describes how a reaped worker ended, for diagnostics.
std::string describe_wait_status(int status) {
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "ended with wait status " + std::to_string(status);
}

// ---- worker side -----------------------------------------------------------

/// Closes every descriptor a freshly forked worker inherited except stdio
/// and `keep` (its pipe's write end).  The rest belong to the forking
/// process: in a daemon, its ledger, its client sockets and the pipes of
/// another sweep's workers, whose supervisor reads each reaped worker's
/// pipe to EOF -- an EOF that a copy held here would put off until this
/// worker exits.  Best effort: without close_range (Linux 5.9) the worker
/// still runs, holding those copies until it exits.
void close_inherited_fds(int keep) {
  const auto k = static_cast<unsigned>(keep);
  if (k > 3) (void)::close_range(3, k - 1, 0);
  (void)::close_range(k + 1, ~0U, 0);
}

/// Everything the forked child needs; plain values so fork() hands each
/// incarnation a private copy.
struct WorkerArgs {
  unsigned incarnation = 0;
  int pipe_fd = -1;
  std::vector<std::size_t> cells;  // remaining shard, in run order
};

/// The worker process body.  Never returns: _exit() always, so a worker
/// forked from a test binary cannot fall back into the test framework.
[[noreturn]] void worker_main(const SupervisorConfig& config,
                              const WorkerArgs& args, const CellFn& cell_fn) {
  persist::reset_signals_in_forked_child();

  std::mutex pipe_mu;  // frames must not interleave with heartbeats
  std::mutex beat_mu;
  std::condition_variable beat_cv;
  bool stop_heartbeat = false;  // guarded by beat_mu

  auto send = [&](WorkerMsg type, const std::vector<std::uint8_t>& payload) {
    const std::lock_guard<std::mutex> lock(pipe_mu);
    if (!write_frame(args.pipe_fd, type, payload)) {
      _exit(11);  // supervisor is gone: stop computing into the void
    }
  };

  // The beat waits on a condition variable rather than sleeping, so
  // quiesce() wakes it at once: a worker exits right after its last cell
  // instead of up to one heartbeat interval later.
  std::thread heartbeat([&] {
    const auto interval =
        std::chrono::milliseconds(config.tuning.heartbeat_interval_ms);
    std::unique_lock<std::mutex> lock(beat_mu);
    while (!beat_cv.wait_for(lock, interval, [&] { return stop_heartbeat; })) {
      lock.unlock();
      send(WorkerMsg::kHeartbeat, {});
      lock.lock();
    }
  });
  auto quiesce = [&] {
    {
      const std::lock_guard<std::mutex> lock(beat_mu);
      stop_heartbeat = true;
    }
    beat_cv.notify_one();
  };

  for (const std::size_t cell : args.cells) {
    send(WorkerMsg::kCellStart, encode_cell_start(cell));

    if (const WorkerFault* fault = config.chaos.fault_for(cell)) {
      if (fault->persistent || args.incarnation == 0) {
        perform_worker_fault(*fault, quiesce);
      }
    }

    CellOutcome outcome;
    try {
      outcome = cell_fn(cell);
    } catch (const std::exception& e) {
      outcome.ok = false;
      outcome.error = e.what();
    } catch (...) {
      outcome.ok = false;
      outcome.error = "unknown exception in sweep cell";
    }
    send(WorkerMsg::kCellDone, encode_cell_done(cell, outcome));
  }

  send(WorkerMsg::kShardDone, {});
  quiesce();
  heartbeat.join();
  _exit(0);
}

// ---- supervisor side -------------------------------------------------------

struct WorkerSlot {
  pid_t pid = -1;
  int fd = -1;  // nonblocking read end of the worker's pipe
  FrameReader reader;
  unsigned incarnations = 0;  // forks so far (next incarnation index)
  unsigned deaths = 0;        // unexpected ends so far (backoff input)
  bool shard_done = false;    // saw kShardDone from the live incarnation
  bool finished = false;      // no work left, no process running
  bool respawn_pending = false;
  Clock::time_point respawn_at{};
  std::uint64_t in_flight = kNoCell;
  Clock::time_point cell_started{};
  Clock::time_point last_msg{};
  std::string kill_reason;  // set when the supervisor SIGKILLs on purpose
};

}  // namespace

SweepSupervisor::SweepSupervisor(SupervisorConfig config)
    : config_(std::move(config)) {
  MSIM_CHECK(config_.workers >= 1);
}

SupervisorReport SweepSupervisor::run(const CellFn& cell_fn) {
  SupervisorReport report;
  const unsigned workers = config_.workers;
  const CellListener& listener = config_.listener;

  std::set<std::size_t> done(config_.completed.begin(), config_.completed.end());
  std::set<std::size_t> exhausted;
  std::map<std::size_t, unsigned> cell_deaths;

  auto publish = [&](obs::ProgressEvent event) {
    if (config_.progress_bus != nullptr) config_.progress_bus->publish(event);
  };
  auto label_of = [&](std::size_t cell) {
    return config_.cell_label ? config_.cell_label(cell) : std::to_string(cell);
  };

  std::vector<std::size_t> order = config_.order;
  if (order.empty()) {
    order.resize(config_.total_cells);
    std::iota(order.begin(), order.end(), std::size_t{0});
  }
  MSIM_CHECK(order.size() == config_.total_cells);

  // Remaining shard of `slot`, in run order: owned, not done, not exhausted.
  auto remaining = [&](unsigned slot) {
    std::vector<std::size_t> cells;
    for (const std::size_t i : order) {
      if (i % workers == slot && done.count(i) == 0 && exhausted.count(i) == 0) {
        cells.push_back(i);
      }
    }
    return cells;
  };

  std::vector<WorkerSlot> slots(workers);

  auto spawn = [&](unsigned slot_index) {
    WorkerSlot& slot = slots[slot_index];
    const std::vector<std::size_t> cells = remaining(slot_index);
    if (cells.empty()) {
      slot.finished = true;
      slot.respawn_pending = false;
      return;
    }
    int fds[2];
    if (::pipe(fds) != 0) {
      throw std::runtime_error(std::string("sweep supervisor: pipe: ") +
                               std::strerror(errno));
    }
    WorkerArgs args;
    args.incarnation = slot.incarnations;
    args.pipe_fd = fds[1];
    args.cells = cells;
    const pid_t pid = ::fork();
    if (pid < 0) {
      (void)::close(fds[0]);
      (void)::close(fds[1]);
      throw std::runtime_error(std::string("sweep supervisor: fork: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      close_inherited_fds(args.pipe_fd);
      worker_main(config_, args, cell_fn);  // never returns
    }
    (void)::close(fds[1]);
    const int flags = ::fcntl(fds[0], F_GETFL, 0);
    (void)::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
    (void)::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
    slot.pid = pid;
    slot.fd = fds[0];
    slot.reader = FrameReader{};
    slot.shard_done = false;
    slot.respawn_pending = false;
    slot.in_flight = kNoCell;
    slot.kill_reason.clear();
    slot.last_msg = Clock::now();
    ++slot.incarnations;
    ++report.workers_spawned;
    obs::ProgressEvent event(obs::ProgressKind::kWorkerSpawn);
    event.label = "worker" + std::to_string(slot_index);
    event.detail = "incarnation " + std::to_string(args.incarnation);
    publish(event);
  };

  auto kill_all_and_reap = [&] {
    for (WorkerSlot& slot : slots) {
      if (slot.pid > 0) (void)::kill(slot.pid, SIGKILL);
    }
    for (WorkerSlot& slot : slots) {
      if (slot.pid > 0) {
        int status = 0;
        (void)::waitpid(slot.pid, &status, 0);
        slot.pid = -1;
      }
      if (slot.fd >= 0) {
        (void)::close(slot.fd);
        slot.fd = -1;
      }
    }
  };

  auto handle_frame = [&](unsigned slot_index, const Frame& frame) {
    WorkerSlot& slot = slots[slot_index];
    slot.last_msg = Clock::now();
    switch (frame.type) {
      case WorkerMsg::kHeartbeat:
        break;
      case WorkerMsg::kCellStart: {
        const std::uint64_t cell = decode_cell_start(frame.payload);
        slot.in_flight = cell;
        slot.cell_started = slot.last_msg;
        if (listener.started) listener.started(static_cast<std::size_t>(cell));
        break;
      }
      case WorkerMsg::kCellDone: {
        auto [cell, outcome] = decode_cell_done(frame.payload);
        if (slot.in_flight == cell) slot.in_flight = kNoCell;
        const auto index = static_cast<std::size_t>(cell);
        if (done.insert(index).second) {
          if (listener.finished) listener.finished(index, outcome);
          report.outcomes[index] = std::move(outcome);
        }
        break;
      }
      case WorkerMsg::kShardDone:
        slot.shard_done = true;
        break;
    }
  };

  // Drains whatever the pipe holds right now; returns false once the write
  // end is closed (EOF).
  auto drain_fd = [&](unsigned slot_index) {
    WorkerSlot& slot = slots[slot_index];
    if (slot.fd < 0) return false;
    std::uint8_t buf[4096];
    for (;;) {
      const ::ssize_t n = ::read(slot.fd, buf, sizeof buf);
      if (n > 0) {
        slot.reader.feed(buf, static_cast<std::size_t>(n));
        while (auto frame = slot.reader.next()) handle_frame(slot_index, *frame);
        continue;
      }
      if (n == 0) return false;  // EOF
      if (errno == EINTR) continue;
      return true;  // EAGAIN: drained for now
    }
  };

  auto on_death = [&](unsigned slot_index, const std::string& how) {
    WorkerSlot& slot = slots[slot_index];
    ++slot.deaths;
    ++report.worker_deaths;
    {
      obs::ProgressEvent event(obs::ProgressKind::kWorkerDeath);
      event.label = "worker" + std::to_string(slot_index);
      event.ok = false;
      event.detail = how;
      publish(event);
    }
    // Charge the death to the in-flight cell; a worker that died between
    // cells charges its next one, so repeated silent deaths still converge
    // on an exhausted cell instead of respawning forever.
    std::uint64_t victim = slot.in_flight;
    if (victim == kNoCell) {
      const std::vector<std::size_t> cells = remaining(slot_index);
      if (cells.empty()) {
        slot.finished = true;  // everything reported before the death landed
        return;
      }
      victim = cells.front();
    }
    slot.in_flight = kNoCell;
    const unsigned deaths_here = ++cell_deaths[static_cast<std::size_t>(victim)];
    if (deaths_here > config_.retries) {
      exhausted.insert(static_cast<std::size_t>(victim));
      SupervisorFailure failure;
      failure.cell = static_cast<std::size_t>(victim);
      failure.attempts = deaths_here;
      failure.error = "worker process " + how + " while running this cell (" +
                      std::to_string(deaths_here) + " attempts)";
      std::ostringstream diag;
      {
        JsonWriter w(diag, 0);
        w.begin_object();
        w.kv("cell", static_cast<std::uint64_t>(victim));
        w.kv("label", label_of(static_cast<std::size_t>(victim)));
        w.kv("slot", static_cast<std::uint64_t>(slot_index));
        w.kv("worker_deaths", static_cast<std::uint64_t>(deaths_here));
        w.kv("last_death", how);
        w.kv("retries", static_cast<std::uint64_t>(config_.retries));
        w.end_object();
      }
      failure.diag = diag.str();
      if (listener.exhausted) listener.exhausted(failure);
      report.process_failures.push_back(std::move(failure));
    } else if (listener.retrying) {
      listener.retrying(static_cast<std::size_t>(victim),
                        how + "; retrying after backoff");
    }
    const std::uint64_t delay =
        config_.tuning.backoff.delay_ms(slot_index, slot.deaths);
    slot.respawn_pending = true;
    slot.respawn_at = Clock::now() + std::chrono::milliseconds(delay);
  };

  try {
    for (unsigned i = 0; i < workers; ++i) spawn(i);

    for (;;) {
      bool all_finished = true;
      for (const WorkerSlot& slot : slots) {
        if (!slot.finished) {
          all_finished = false;
          break;
        }
      }
      if (all_finished) break;

      if (config_.watch_signals) {
        const int signum = persist::signal_pending();
        if (signum != 0) {
          kill_all_and_reap();
          throw persist::Interrupted(signum);
        }
      }
      if (config_.cancel &&
          config_.cancel->load(std::memory_order_relaxed)) {
        kill_all_and_reap();
        throw persist::Cancelled();
      }

      const Clock::time_point now = Clock::now();

      for (unsigned i = 0; i < workers; ++i) {
        WorkerSlot& slot = slots[i];
        if (slot.respawn_pending && now >= slot.respawn_at) spawn(i);
      }

      std::vector<struct pollfd> pfds;
      std::vector<unsigned> pfd_slots;
      for (unsigned i = 0; i < workers; ++i) {
        if (slots[i].fd >= 0) {
          pfds.push_back({slots[i].fd, POLLIN, 0});
          pfd_slots.push_back(i);
        }
      }
      if (pfds.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      } else {
        (void)::poll(pfds.data(), pfds.size(), 20);
        for (std::size_t p = 0; p < pfds.size(); ++p) {
          if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
            (void)drain_fd(pfd_slots[p]);
          }
        }
      }

      for (unsigned i = 0; i < workers; ++i) {
        WorkerSlot& slot = slots[i];
        if (slot.pid <= 0) continue;
        int status = 0;
        const pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
        if (reaped != slot.pid) continue;
        // Reap order matters: drain every frame the worker managed to
        // write before deciding whether its death lost a cell.
        while (drain_fd(i)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (slot.fd >= 0) {
          (void)::close(slot.fd);
          slot.fd = -1;
        }
        slot.pid = -1;
        const bool clean = slot.shard_done && WIFEXITED(status) &&
                           WEXITSTATUS(status) == 0;
        if (clean && remaining(i).empty()) {
          slot.finished = true;
          obs::ProgressEvent event(obs::ProgressKind::kWorkerExit);
          event.label = "worker" + std::to_string(i);
          publish(event);
        } else {
          std::string how = slot.kill_reason.empty()
                                ? describe_wait_status(status)
                                : slot.kill_reason;
          on_death(i, how);
        }
      }

      for (unsigned i = 0; i < workers; ++i) {
        WorkerSlot& slot = slots[i];
        if (slot.pid <= 0) continue;
        const std::uint64_t silent = ms_since(slot.last_msg, now);
        if (silent > config_.tuning.heartbeat_timeout_ms) {
          slot.kill_reason = "missed heartbeats for " + std::to_string(silent) +
                             "ms (SIGKILLed by supervisor)";
          (void)::kill(slot.pid, SIGKILL);
          continue;
        }
        if (config_.cell_timeout_ms != 0 && slot.in_flight != kNoCell) {
          const std::uint64_t running = ms_since(slot.cell_started, now);
          if (running > config_.cell_timeout_ms) {
            slot.kill_reason =
                "cell exceeded cell_timeout_ms=" +
                std::to_string(config_.cell_timeout_ms) + " (ran " +
                std::to_string(running) + "ms; SIGKILLed by supervisor)";
            (void)::kill(slot.pid, SIGKILL);
          }
        }
      }
    }
  } catch (...) {
    kill_all_and_reap();
    throw;
  }

  return report;
}

}  // namespace msim::robust
