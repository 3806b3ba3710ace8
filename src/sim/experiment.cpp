#include "sim/experiment.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/archive.hpp"
#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "persist/journal.hpp"
#include "persist/signal.hpp"
#include "robust/supervisor.hpp"
#include "trace/shared_stream.hpp"

namespace msim::sim {

double BaselineCache::alone_ipc(std::string_view benchmark, std::uint32_t iq_entries) {
  const auto key = std::make_pair(std::string(benchmark), iq_entries);

  std::shared_ptr<Slot> slot;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = done_.find(key); it != done_.end()) return it->second;
    auto& entry = slots_[key];
    if (!entry) {
      entry = std::make_shared<Slot>();
      owner = true;
    }
    slot = entry;
  }

  if (!owner) {
    // Another thread is simulating this key; block on its slot only.
    std::unique_lock<std::mutex> lock(slot->m);
    slot->cv.wait(lock, [&] { return slot->ready || slot->failed; });
    if (slot->failed) {
      throw std::runtime_error("baseline simulation failed for '" + key.first +
                               "': " + slot->error);
    }
    return slot->ipc;
  }

  try {
    RunConfig cfg = base_;
    cfg.benchmarks = {key.first};
    cfg.kind = core::SchedulerKind::kTraditional;
    cfg.iq_entries = iq_entries;
    cfg.seed = derive_stream_seed(base_.seed, "baseline:" + key.first, iq_entries);
    const RunResult result = run_simulation(cfg);
    MSIM_CHECK(result.throughput_ipc > 0.0);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      done_.emplace(key, result.throughput_ipc);
      ++computations_;
    }
    {
      const std::lock_guard<std::mutex> lock(slot->m);
      slot->ipc = result.throughput_ipc;
      slot->ready = true;
    }
    slot->cv.notify_all();
    return result.throughput_ipc;
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      slots_.erase(key);  // a later request may retry
    }
    {
      const std::lock_guard<std::mutex> lock(slot->m);
      slot->failed = true;
      // Chain the underlying reason into waiters' rethrown error text.
      try {
        throw;
      } catch (const std::exception& e) {
        slot->error = e.what();
      } catch (...) {
        slot->error = "unknown (non-standard exception)";
      }
    }
    slot->cv.notify_all();
    throw;
  }
}

BaselineCache::BaselineCache(const BaselineCache& other) : base_(other.base_) {
  const std::lock_guard<std::mutex> lock(other.mu_);
  done_ = other.done_;
  computations_ = other.computations_;
}

std::size_t BaselineCache::entries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return done_.size();
}

std::uint64_t BaselineCache::computations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return computations_;
}

std::vector<BaselineEntry> BaselineCache::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<BaselineEntry> out;
  out.reserve(done_.size());
  for (const auto& [key, ipc] : done_) {
    out.push_back({key.first, key.second, ipc});
  }
  return out;
}

MixResult run_mix(const trace::WorkloadMix& mix, core::SchedulerKind kind,
                  std::uint32_t iq_entries, const RunConfig& base,
                  BaselineCache& baselines, trace::StreamSet* streams) {
  RunConfig cfg = base;
  cfg.benchmarks.clear();
  for (const std::string_view bench : mix.threads()) {
    cfg.benchmarks.emplace_back(bench);
  }
  cfg.kind = kind;
  cfg.iq_entries = iq_entries;
  // One stream per (mix, iq): independent of scheduler kind so competing
  // schedulers see identical workload randomness, and independent of
  // execution order so parallel sweeps reproduce serial ones bit-for-bit.
  cfg.seed = derive_stream_seed(base.seed, std::string("mix:").append(mix.name),
                                iq_entries);

  MixResult out;
  out.mix_name = mix.name;
  out.raw = run_simulation(cfg, streams);
  // No sweep output reads a cell's registry snapshot; dropping it keeps
  // journal records and worker frames small.
  out.raw.metrics = std::vector<obs::MetricSnapshot>{};
  out.throughput_ipc = out.raw.throughput_ipc;

  std::vector<double> alone;
  alone.reserve(cfg.benchmarks.size());
  for (const std::string& bench : cfg.benchmarks) {
    alone.push_back(baselines.alone_ipc(bench, iq_entries));
  }
  out.fairness = hmean_weighted_ipc(out.raw.per_thread_ipc, alone);
  return out;
}

namespace {

// ---- journal payload codec -------------------------------------------------
//
// A journaled cell must replay byte-identically into the sweep JSON and the
// aggregates, so the codec covers the complete MixResult — every RunResult
// field, not just the ones today's reports read.  A sweep cell's `metrics`
// is always empty (run_mix drops the registry snapshot), so new records
// hold an empty sequence there; older records that carry one still decode.

void io_run_result(persist::Archive& ar, RunResult& r) {
  ar.section("run_result");
  ar.io(r.cycles);
  ar.io(r.per_thread_ipc);
  ar.io(r.per_thread_committed);
  ar.io(r.throughput_ipc);
  ar.io(r.commit_digest);

  core::io_dispatch_stats(ar, r.dispatch);
  core::io_iq_stats(ar, r.iq);
  ar.io(r.iq_mean_occupancy);

  mem::io_cache_stats(ar, r.memory.l1i);
  mem::io_cache_stats(ar, r.memory.l1d);
  mem::io_cache_stats(ar, r.memory.l2);
  ar.io(r.memory.memory_accesses);

  ar.io(r.bpred.branches);
  ar.io(r.bpred.mispredicts);

  smt::io_pipeline_stats(ar, r.pipeline);

  ar.io(r.truncated);
  ar.io_sequence(r.metrics, [](persist::Archive& a, obs::MetricSnapshot& m) {
    a.io(m.name);
    a.io(m.kind);
    a.io(m.value);
    a.io(m.events);
    a.io(m.opportunities);
    a.io(m.count);
    a.io(m.min);
    a.io(m.max);
    a.io(m.stddev);
    a.io(m.p50);
    a.io(m.p90);
    a.io(m.p99);
  });
  ar.io_sequence(r.trace, [](persist::Archive& a, obs::TraceEvent& e) {
    a.io(e.cycle);
    a.io(e.seq);
    a.io(e.tid);
    a.io(e.stage);
    a.io(e.flags);
  });
  ar.io(r.trace_dropped);
  ar.io_sequence(r.intervals, obs::io_interval_record);
  ar.io(r.intervals_dropped);
}

void io_mix_result(persist::Archive& ar, MixResult& m) {
  ar.section("mix_result");
  ar.io(m.mix_name);
  ar.io(m.throughput_ipc);
  ar.io(m.fairness);
  ar.io(m.ok);
  ar.io(m.error);
  ar.io(m.attempts);
  ar.io(m.diag);
  io_run_result(ar, m.raw);
}

std::vector<std::uint8_t> encode_mix_result(const MixResult& m) {
  persist::Archive ar = persist::Archive::saver();
  io_mix_result(ar, const_cast<MixResult&>(m));
  return ar.bytes();
}

MixResult decode_mix_result(const std::vector<std::uint8_t>& payload) {
  persist::Archive ar = persist::Archive::loader(payload);
  MixResult m;
  io_mix_result(ar, m);
  ar.expect_end();
  return m;
}

/// Hash of everything that defines the sweep's grid and its cells' inputs.
/// Deliberately excludes jobs / progress / isolation: those change how the
/// sweep executes, never what a completed cell contains, and a journal must
/// resume at any job count.
std::uint64_t sweep_fingerprint(const SweepRequest& request) {
  Fnv1a f;
  f.u64(request.base.fingerprint());
  f.u64(request.thread_count);
  f.u64(request.kinds.size());
  for (const core::SchedulerKind kind : request.kinds) {
    f.u64(static_cast<std::uint64_t>(kind));
  }
  f.u64(request.iq_sizes.size());
  for (const std::uint32_t iq : request.iq_sizes) f.u64(iq);
  return f.h;
}

SweepCell aggregate_cell(core::SchedulerKind kind, std::uint32_t iq,
                         std::vector<MixResult> mixes) {
  SweepCell cell;
  cell.kind = kind;
  cell.iq_entries = iq;
  std::vector<double> ipcs;
  std::vector<double> fairs;
  StreamingStat stall;
  StreamingStat residency;
  // Failed mixes (crash isolation) are excluded from every aggregate; with
  // nothing surviving, the means degrade to 0.
  for (const MixResult& m : mixes) {
    if (!m.ok) continue;
    ipcs.push_back(m.throughput_ipc);
    fairs.push_back(m.fairness);
    stall.add(m.raw.dispatch.all_stall_fraction());
    residency.add(m.raw.iq.mean_residency());
  }
  cell.hmean_ipc = harmonic_mean(ipcs);
  cell.hmean_fairness = harmonic_mean(fairs);
  cell.mean_all_stall_fraction = stall.mean();
  cell.mean_iq_residency = residency.mean();
  cell.mixes = std::move(mixes);
  return cell;
}

struct GridPoint {
  core::SchedulerKind kind;
  std::uint32_t iq;
  const trace::WorkloadMix* mix;
};

/// One run_sweep call in flight: the grid, its journal and its results.
/// Cells run inline on the calling thread (jobs=1), on a ThreadPool, or in
/// forked workers under robust::SweepSupervisor, but every backend runs a
/// cell through run_cell() (the one retry loop) and hands the result to
/// finish(), the one place that journals, reports progress and stores it.
/// The journal therefore has one writer, this process, and one replay path.
///
/// The grid is kind-major, so cell i belongs to the (mix, IQ) group
/// i % group_count, and every kind of a group runs the same streams.  A
/// group's cells run back to back on one thread: a group is one task inline
/// and on the pool (see run_pool for the exception), and a forked worker
/// runs its shard a group at a time.  If shares_streams(request), those of
/// a group's cells that run together replay one trace::StreamSet, dropped
/// when they are done; any other cell generates its own streams.  Only the
/// order changes: grid order stays the order of results, journal keys and
/// cell indices.
class SweepExecution {
 public:
  SweepExecution(const SweepRequest& request, BaselineCache& baselines,
                 std::vector<GridPoint> grid, std::size_t group_count)
      : request_(request),
        baselines_(baselines),
        grid_(std::move(grid)),
        bus_(request.progress_bus),
        group_count_(group_count),
        share_streams_(shares_streams(request)),
        results_(grid_.size()) {
    MSIM_CHECK(group_count > 0 && grid_.size() % group_count == 0);
    if (!request_.journal_path.empty()) {
      journal_.emplace(request_.journal_path, sweep_fingerprint(request_),
                       request_.resume);
    }
  }

  SweepExecution(const SweepExecution&) = delete;
  SweepExecution& operator=(const SweepExecution&) = delete;

  /// Replays the journaled cells, runs the rest, and returns every result
  /// in grid order.
  std::vector<MixResult> run(robust::ChaosPlan chaos) {
    const std::string label = std::to_string(request_.thread_count) + "T sweep";
    if (bus_) {
      obs::ProgressEvent ev(obs::ProgressKind::kSweepStart);
      ev.label = label;
      ev.total = grid_.size();
      bus_->publish(ev);
    }

    std::vector<std::size_t> replayed;
    std::vector<bool> done(grid_.size(), false);
    for (std::size_t i = 0; i < grid_.size(); ++i) {
      const std::vector<std::uint8_t>* payload =
          journal_ ? journal_->find(key_of(i)) : nullptr;
      if (payload == nullptr) continue;
      MixResult m = decode_mix_result(*payload);
      if (m.mix_name != grid_[i].mix->name) {
        throw persist::PersistError(
            "journal entry '" + key_of(i) + "' replays mix '" + m.mix_name +
            "'; the journal does not match this sweep (docs/CHECKPOINT.md)");
      }
      replayed.push_back(i);
      done[i] = true;
      finish(i, std::move(m), "journal replay");
    }
    if (!replayed.empty() && request_.progress) {
      request_.progress("journal: replaying " + std::to_string(replayed.size()) +
                        " completed cell(s)");
    }

    if (request_.isolation == SweepIsolation::kProcess) {
      run_forked(std::move(replayed), std::move(chaos));
    } else {
      // Each group's cells still to run, kinds in grid order.
      std::vector<std::vector<std::size_t>> groups(group_count_);
      for (std::size_t i = 0; i < grid_.size(); ++i) {
        if (!done[i]) groups[i % group_count_].push_back(i);
      }
      std::erase_if(groups, [](const std::vector<std::size_t>& g) { return g.empty(); });
      if (request_.jobs == 1) {
        for (const std::vector<std::size_t>& cells : groups) run_group(cells);
      } else {
        run_pool(groups);
      }
    }

    if (bus_) {
      obs::ProgressEvent ev(obs::ProgressKind::kSweepFinish);
      ev.label = label;
      ev.done = done_;
      ev.total = grid_.size();
      bus_->publish(ev);
    }
    return std::move(results_);
  }

 private:
  [[nodiscard]] std::string key_of(std::size_t i) const {
    const GridPoint& p = grid_[i];
    return std::string(core::scheduler_kind_name(p.kind)) + " iq=" +
           std::to_string(p.iq) + " " + std::string(p.mix->name);
  }

  [[nodiscard]] MixResult failed_cell(std::size_t i, std::string error,
                                      unsigned attempts) const {
    MixResult m;
    m.mix_name = grid_[i].mix->name;
    m.ok = false;
    m.error = std::move(error);
    m.attempts = attempts;
    return m;
  }

  /// Runs cell `i` on `base`, replaying `streams` (nullptr: generating),
  /// scoring against `baselines` and retrying failures under crash
  /// isolation; each attempt replays the streams from their start.  Forked
  /// workers pass report_retries=false: the progress bus belongs to the
  /// parent process.
  [[nodiscard]] MixResult run_cell(std::size_t i, const RunConfig& base,
                                   BaselineCache& baselines, bool report_retries,
                                   trace::StreamSet* streams) const {
    const GridPoint& p = grid_[i];
    if (!request_.isolate_failures) {
      return run_mix(*p.mix, p.kind, p.iq, base, baselines, streams);
    }
    std::string last_error;
    for (unsigned attempt = 1; attempt <= request_.retries + 1; ++attempt) {
      try {
        MixResult r = run_mix(*p.mix, p.kind, p.iq, base, baselines, streams);
        r.attempts = attempt;
        return r;
      } catch (const persist::Interrupted&) {
        // An interrupt is a request to stop, not a cell failure: never
        // retried, never recorded — the cell reruns on resume.
        throw;
      } catch (const persist::Cancelled&) {
        // Same contract for per-job cancellation (the serve daemon): the
        // sweep stops after the journal recorded every completed cell.
        throw;
      } catch (const std::exception& e) {
        last_error = e.what();
        if (report_retries && attempt <= request_.retries) {
          retrying(i, last_error);
        }
      }
    }
    return failed_cell(i, std::move(last_error), request_.retries + 1);
  }

  /// Inline and pool backends: one group's cells run in this process, in
  /// order, over one stream set if more than one of them reads it.
  void run_group(std::span<const std::size_t> cells) {
    trace::StreamSet streams;
    const bool share = share_streams_ && cells.size() > 1;
    for (const std::size_t i : cells) {
      started(i);
      std::optional<obs::ScopeTimer> timer;
      if (request_.timers) timer.emplace(*request_.timers, "cell:" + key_of(i));
      MixResult r = run_cell(i, request_.base, baselines_, /*report_retries=*/true,
                             share ? &streams : nullptr);
      timer.reset();
      finish(i, std::move(r), "");
    }
  }

  /// Each group is one task, except the last jobs - 1: their cells are
  /// tasks of their own (so they generate their streams), so that the
  /// pool's tail evens out at one cell and a grid of fewer groups than jobs
  /// still runs `jobs` cells at once.
  void run_pool(const std::vector<std::vector<std::size_t>>& groups) {
    ThreadPool pool(request_.jobs);
    const std::size_t whole = groups.size() - std::min<std::size_t>(groups.size(),
                                                                    request_.jobs - 1);
    std::vector<std::future<void>> pending;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::span<const std::size_t> cells = groups[g];
      if (g < whole) {
        pending.push_back(pool.submit([this, cells] { run_group(cells); }));
        continue;
      }
      for (std::size_t k = 0; k < cells.size(); ++k) {
        pending.push_back(pool.submit([this, cell = cells.subspan(k, 1)] { run_group(cell); }));
      }
    }
    // Drain every worker before rethrowing anything, so completed cells all
    // reach the journal; an interrupt outranks other failures because it is
    // the reason the caller is exiting.
    std::exception_ptr interrupted;
    std::exception_ptr cancelled;
    std::exception_ptr first_error;
    for (std::future<void>& f : pending) {
      try {
        f.get();
      } catch (const persist::Interrupted&) {
        if (!interrupted) interrupted = std::current_exception();
      } catch (const persist::Cancelled&) {
        if (!cancelled) cancelled = std::current_exception();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (interrupted) std::rethrow_exception(interrupted);
    if (cancelled) std::rethrow_exception(cancelled);
    if (first_error) std::rethrow_exception(first_error);
  }

  /// Process backend: cells run in forked workers and come back over the
  /// supervisor's pipe as encoded MixResults.
  void run_forked(std::vector<std::size_t> replayed, robust::ChaosPlan chaos) {
    // Workers inherit this config at fork: no progress bus (its sinks and
    // streams belong to the parent) and no cooperative signal handling (the
    // supervisor owns shutdown; forked children reset to SIG_DFL).  The
    // cancel flag lives in the parent's memory: a forked worker's copy is
    // frozen at fork time, so cancellation is the supervisor's job (it
    // polls the flag and SIGKILLs the workers).
    RunConfig worker_base = request_.base;
    worker_base.progress_bus = nullptr;
    worker_base.watch_signals = false;
    worker_base.cancel = nullptr;
    // Workers score against a copy holding only finished baselines.  An
    // in-flight slot of the shared cache belongs to a parent thread that
    // does not exist in the child, so a worker would wait on it forever.
    BaselineCache worker_baselines(baselines_);

    robust::SupervisorConfig sc;
    sc.total_cells = grid_.size();
    sc.workers = request_.workers == 0 ? request_.jobs : request_.workers;
    sc.retries = request_.retries;
    sc.cell_timeout_ms = request_.cell_timeout_ms;
    sc.tuning.heartbeat_timeout_ms = request_.worker_heartbeat_timeout_ms;
    sc.chaos = std::move(chaos);
    sc.completed = std::move(replayed);
    // Each worker runs its shard (still cell i -> worker i % workers) a
    // group at a time.
    sc.order.reserve(grid_.size());
    for (std::size_t g = 0; g < group_count_; ++g) {
      for (std::size_t i = g; i < grid_.size(); i += group_count_) sc.order.push_back(i);
    }
    sc.watch_signals = request_.base.watch_signals;
    sc.cancel = request_.base.cancel;
    sc.progress_bus = bus_;
    sc.cell_label = [this](std::size_t i) { return key_of(i); };
    sc.listener.started = [this](std::size_t i) { started(i); };
    sc.listener.retrying = [this](std::size_t i, const std::string& why) {
      retrying(i, why);
    };
    sc.listener.finished = [this](std::size_t i, const robust::CellOutcome& out) {
      // An empty payload means the worker's cell function threw.
      finish(i,
             out.payload.empty() ? failed_cell(i, out.error, out.attempts)
                                 : decode_mix_result(out.payload),
             "");
    };
    sc.listener.exhausted = [this](const robust::SupervisorFailure& f) {
      MixResult m = failed_cell(f.cell, f.error, f.attempts);
      m.diag = f.diag;
      finish(f.cell, std::move(m), "");
    };
    // Only forked workers touch these, each its own copy: the streams of
    // the group the worker is running, if its shard holds more than one of
    // the group's cells.
    const std::size_t workers = sc.workers;
    std::size_t worker_group = group_count_;
    std::optional<trace::StreamSet> worker_streams;
    robust::SweepSupervisor supervisor(std::move(sc));
    (void)supervisor.run([this, &worker_base, &worker_baselines, workers, &worker_group,
                          &worker_streams](std::size_t i) {
      if (i % group_count_ != worker_group) {
        worker_group = i % group_count_;
        std::size_t mine = 0;
        for (std::size_t j = worker_group; j < grid_.size(); j += group_count_) {
          mine += j % workers == i % workers;
        }
        worker_streams.reset();
        if (share_streams_ && mine > 1) worker_streams.emplace();
      }
      const MixResult r =
          run_cell(i, worker_base, worker_baselines, /*report_retries=*/false,
                   worker_streams ? &*worker_streams : nullptr);
      robust::CellOutcome out;
      out.ok = r.ok;
      out.error = r.error;
      out.attempts = r.attempts;
      out.payload = encode_mix_result(r);
      return out;
    });
  }

  void started(std::size_t i) const {
    if (!bus_) return;
    obs::ProgressEvent ev(obs::ProgressKind::kCellStart);
    ev.label = key_of(i);
    bus_->publish(ev);
  }

  void retrying(std::size_t i, const std::string& why) const {
    if (!bus_) return;
    obs::ProgressEvent ev(obs::ProgressKind::kCellRetry);
    ev.label = key_of(i);
    ev.ok = false;
    ev.detail = why;
    bus_->publish(ev);
  }

  /// Records a finished cell.  `how` is empty for a cell that just ran and
  /// names the source of a replayed one.
  void finish(std::size_t i, MixResult r, std::string_view how) {
    const std::string key = key_of(i);
    // Failed cells are not journaled (a resume retries them from scratch);
    // replayed cells already are.
    const bool journal_it = journal_ && r.ok && how.empty();
    const std::vector<std::uint8_t> payload =
        journal_it ? encode_mix_result(r) : std::vector<std::uint8_t>{};
    obs::ProgressEvent ev(obs::ProgressKind::kCellFinish);
    {
      const std::lock_guard<std::mutex> lock(finish_mu_);
      if (journal_it) journal_->append(key, payload);
      if (request_.progress && how.empty()) {
        request_.progress(key + (r.ok ? "" : " FAILED"));
      }
      ev.done = ++done_;
    }
    if (bus_) {
      ev.label = key;
      ev.total = grid_.size();
      ev.ok = r.ok;
      ev.detail = r.ok ? std::string(how) : r.error;
      bus_->publish(ev);
    }
    results_[i] = std::move(r);
  }

  const SweepRequest& request_;
  BaselineCache& baselines_;
  const std::vector<GridPoint> grid_;
  obs::ProgressBus* const bus_;
  const std::size_t group_count_;
  const bool share_streams_;  ///< shares_streams(request_)
  std::optional<persist::SweepJournal> journal_;
  std::mutex finish_mu_;  ///< guards journal_ appends, done_, request_.progress
  std::uint64_t done_ = 0;
  std::vector<MixResult> results_;  ///< slot i written once, by finish(i)
};

}  // namespace

void SweepRequest::validate() const {
  if (thread_count < 2 || thread_count > 4) {
    throw std::invalid_argument(
        "sweep=" + std::to_string(thread_count) +
        " is invalid: the figure sweeps cover thread counts 2, 3 and 4");
  }
  if (jobs == 0) throw std::invalid_argument("jobs=0 is invalid: use jobs>=1");
  if (iq_sizes.empty()) throw std::invalid_argument("iq= names no IQ size");
  if (isolation == SweepIsolation::kProcess) {
    if (!isolate_failures) {
      throw std::invalid_argument(
          "isolation=process requires isolate (the supervisor degrades worker "
          "deaths into per-cell failures, which only partial results can "
          "report)");
    }
    // run_sweep adds the traditional anchor when it is not requested.
    const bool anchored = std::ranges::find(kinds, core::SchedulerKind::kTraditional) !=
                          kinds.end();
    const std::size_t grid = (kinds.size() + (anchored ? 0 : 1)) * iq_sizes.size() *
                             trace::mixes_for(thread_count).size();
    for (const robust::WorkerFault& fault :
         robust::ChaosPlan::parse(chaos).faults) {
      if (fault.cell >= grid) {
        throw std::invalid_argument(
            "chaos: cell " + std::to_string(fault.cell) +
            " is outside this sweep's grid of " + std::to_string(grid) +
            " cells");
      }
    }
  } else {
    if (workers != 0) {
      throw std::invalid_argument("workers= requires isolation=process");
    }
    if (cell_timeout_ms != 0) {
      throw std::invalid_argument("cell_timeout_ms= requires isolation=process");
    }
    if (!chaos.empty()) {
      throw std::invalid_argument("chaos= requires isolation=process");
    }
  }
}

bool shares_streams(const SweepRequest& request) noexcept {
  const std::uint64_t per_thread =
      kSharedStreamRecordBudget / std::max(1u, request.thread_count);
  return request.base.warmup <= per_thread &&
         request.base.horizon <= per_thread - request.base.warmup;
}

std::vector<SweepCell> run_sweep(const SweepRequest& request, BaselineCache& baselines) {
  request.validate();
  const auto mixes = trace::mixes_for(request.thread_count);

  // The traditional scheduler anchors every speedup; ensure it is present.
  std::vector<core::SchedulerKind> kinds = request.kinds;
  const bool traditional_requested =
      std::find(kinds.begin(), kinds.end(), core::SchedulerKind::kTraditional) !=
      kinds.end();
  if (!traditional_requested) {
    kinds.insert(kinds.begin(), core::SchedulerKind::kTraditional);
  }

  // Flatten the grid kind-major (request order), then iq, then mix: this
  // fixed enumeration is both the work list and the aggregation order, so
  // results never depend on which worker finishes first.
  std::vector<GridPoint> grid;
  grid.reserve(kinds.size() * request.iq_sizes.size() * mixes.size());
  for (const core::SchedulerKind kind : kinds) {
    for (const std::uint32_t iq : request.iq_sizes) {
      for (const trace::WorkloadMix& mix : mixes) {
        grid.push_back({kind, iq, &mix});
      }
    }
  }

  robust::ChaosPlan chaos = request.isolation == SweepIsolation::kProcess
                                ? robust::ChaosPlan::parse(request.chaos)
                                : robust::ChaosPlan{};
  std::vector<MixResult> results =
      SweepExecution(request, baselines, std::move(grid),
                     request.iq_sizes.size() * mixes.size())
          .run(std::move(chaos));

  std::vector<SweepCell> cells;
  cells.reserve(kinds.size() * request.iq_sizes.size());
  std::size_t next = 0;
  for (const core::SchedulerKind kind : kinds) {
    for (const std::uint32_t iq : request.iq_sizes) {
      std::vector<MixResult> cell_results(
          std::make_move_iterator(results.begin() + static_cast<std::ptrdiff_t>(next)),
          std::make_move_iterator(results.begin() +
                                  static_cast<std::ptrdiff_t>(next + mixes.size())));
      next += mixes.size();
      cells.push_back(aggregate_cell(kind, iq, std::move(cell_results)));
    }
  }

  // Compute per-mix speedups against traditional at the same capacity.
  std::map<std::uint32_t, const SweepCell*> trad_by_iq;
  for (const SweepCell& cell : cells) {
    if (cell.kind == core::SchedulerKind::kTraditional) {
      trad_by_iq[cell.iq_entries] = &cell;
    }
  }
  for (SweepCell& cell : cells) {
    const SweepCell* trad = trad_by_iq.at(cell.iq_entries);
    std::vector<double> ipc_ratios;
    std::vector<double> fair_ratios;
    MSIM_CHECK(trad->mixes.size() == cell.mixes.size());
    for (std::size_t i = 0; i < cell.mixes.size(); ++i) {
      MSIM_CHECK(trad->mixes[i].mix_name == cell.mixes[i].mix_name);
      // A speedup is a paired comparison: it exists only when both sides of
      // the pair survived.  Failed mixes drop out of the mean.
      if (!trad->mixes[i].ok || !cell.mixes[i].ok) continue;
      ipc_ratios.push_back(cell.mixes[i].throughput_ipc /
                           trad->mixes[i].throughput_ipc);
      fair_ratios.push_back(cell.mixes[i].fairness / trad->mixes[i].fairness);
    }
    cell.ipc_speedup_vs_trad = harmonic_mean(ipc_ratios);
    cell.fairness_gain_vs_trad = harmonic_mean(fair_ratios);
  }

  if (!traditional_requested) {
    std::erase_if(cells, [](const SweepCell& c) {
      return c.kind == core::SchedulerKind::kTraditional;
    });
  }
  return cells;
}

const SweepCell& cell_for(const std::vector<SweepCell>& cells,
                          core::SchedulerKind kind, std::uint32_t iq_entries) {
  for (const SweepCell& cell : cells) {
    if (cell.kind == kind && cell.iq_entries == iq_entries) return cell;
  }
  throw std::invalid_argument("no sweep cell for requested (kind, iq)");
}

std::vector<FailedCell> sweep_failures(const std::vector<SweepCell>& cells) {
  std::vector<FailedCell> failures;
  for (const SweepCell& cell : cells) {
    for (const MixResult& m : cell.mixes) {
      if (m.ok) continue;
      failures.push_back(
          {cell.kind, cell.iq_entries, m.mix_name, m.error, m.attempts, m.diag});
    }
  }
  return failures;
}

}  // namespace msim::sim
