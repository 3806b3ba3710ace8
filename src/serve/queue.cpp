#include "serve/queue.hpp"

#include <algorithm>

#include "serve/http.hpp"

namespace msim::serve {

std::string_view job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kExpired: return "expired";
  }
  return "unknown";
}

void EventLog::append(std::string_view line) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    if (ends_.size() >= kMaxLines) {
      if (truncated_) return;
      truncated_ = true;
      line =
          R"({"kind":"events_truncated","detail":"event cap reached; further events dropped"})";
    }
    text_ += line;
    ends_.push_back(text_.size());
  }
  cv_.notify_all();
}

void EventLog::close() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    text_.shrink_to_fit();
    ends_.shrink_to_fit();
  }
  cv_.notify_all();
}

EventLog::Fetch EventLog::fetch(std::size_t index, int timeout_ms,
                                std::string& line) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
               [&] { return closed_ || index < ends_.size(); });
  if (index < ends_.size()) {
    const std::size_t begin = index == 0 ? 0 : ends_[index - 1];
    line.assign(text_, begin, ends_[index] - begin);
    return Fetch::kLine;
  }
  return closed_ ? Fetch::kClosed : Fetch::kTimeout;
}

std::size_t EventLog::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ends_.size();
}

bool EventLog::closed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

void JobQueue::set_next_id(std::uint64_t next_id) {
  std::uint64_t current = next_id_.load(std::memory_order_relaxed);
  while (current < next_id &&
         !next_id_.compare_exchange_weak(current, next_id,
                                         std::memory_order_relaxed)) {
  }
}

std::uint64_t JobQueue::allocate_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void JobQueue::fire_hook(const Job& job, JobState state) const {
  if (hook_) hook_(job, state);
}

std::shared_ptr<Job> JobQueue::enqueue(std::shared_ptr<Job> job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!job->idempotency_key.empty()) {
      const auto it = by_key_.find(job->idempotency_key);
      if (it != by_key_.end()) return it->second;  // dedupe: nothing enqueued
    }
    if (draining_ || stopped_) {
      throw HttpError(503, "server is draining; not accepting new jobs");
    }
    if (ready_.size() >= depth_) {
      throw HttpError(429, "job queue is full (" + std::to_string(depth_) +
                               " queued); retry after a job finishes or "
                               "raise --queue-depth");
    }
    job->state = JobState::kQueued;
    if (job->ttl_ms != 0) {
      job->deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(job->ttl_ms);
    }
    ++accepted_;
    jobs_.emplace(job->id, job);
    if (!job->idempotency_key.empty()) by_key_.emplace(job->idempotency_key, job);
    ready_.emplace(std::make_pair(-job->priority, job->id), job);
  }
  cv_.notify_one();
  fire_hook(*job, JobState::kQueued);
  return job;
}

void JobQueue::restore(std::shared_ptr<Job> job) {
  bool terminal = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++accepted_;
    jobs_.emplace(job->id, job);
    if (!job->idempotency_key.empty()) {
      by_key_.emplace(job->idempotency_key, job);
    }
    switch (job->state) {
      case JobState::kDone: ++done_; terminal = true; break;
      case JobState::kFailed: ++failed_; terminal = true; break;
      case JobState::kCancelled: ++cancelled_; terminal = true; break;
      case JobState::kExpired: ++expired_; terminal = true; break;
      default:
        // Re-enqueued past the depth bound on purpose: the job was already
        // accepted by the previous incarnation.  The TTL clock restarts at
        // recovery (wall time while the daemon was down is not counted).
        job->state = JobState::kQueued;
        if (job->ttl_ms != 0) {
          job->deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(job->ttl_ms);
        }
        ready_.emplace(std::make_pair(-job->priority, job->id), job);
        break;
    }
  }
  if (terminal) {
    job->events.close();
  } else {
    cv_.notify_one();
  }
}

std::shared_ptr<Job> JobQueue::next_runnable() {
  while (true) {
    std::shared_ptr<Job> job;
    std::vector<std::shared_ptr<Job>> expired;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Bounded wait so queued TTLs are enforced even when no submission
      // or shutdown wakes the executors.
      cv_.wait_for(lock, std::chrono::milliseconds(200), [&] {
        return stopped_ || draining_ || !ready_.empty();
      });
      expired = collect_expired_locked(std::chrono::steady_clock::now());
      if (stopped_ || (draining_ && ready_.empty())) {
        lock.unlock();
        for (const auto& e : expired) e->events.close();
        for (const auto& e : expired) fire_hook(*e, JobState::kExpired);
        return nullptr;
      }
      if (!ready_.empty()) {
        auto it = ready_.begin();
        job = it->second;
        ready_.erase(it);
        job->state = JobState::kRunning;
        ++running_;
      }
    }
    for (const auto& e : expired) e->events.close();
    for (const auto& e : expired) fire_hook(*e, JobState::kExpired);
    if (job) {
      fire_hook(*job, JobState::kRunning);
      return job;
    }
  }
}

std::vector<std::shared_ptr<Job>> JobQueue::collect_expired_locked(
    std::chrono::steady_clock::time_point now) {
  std::vector<std::shared_ptr<Job>> expired;
  for (auto it = ready_.begin(); it != ready_.end();) {
    Job& job = *it->second;
    if (job.ttl_ms != 0 && job.deadline <= now) {
      job.state = JobState::kExpired;
      job.error = "expired: queued longer than ttl_ms=" +
                  std::to_string(job.ttl_ms);
      ++expired_;
      expired.push_back(it->second);
      it = ready_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

void JobQueue::expire_overdue() {
  std::vector<std::shared_ptr<Job>> expired;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    expired = collect_expired_locked(std::chrono::steady_clock::now());
  }
  for (const auto& e : expired) e->events.close();
  for (const auto& e : expired) fire_hook(*e, JobState::kExpired);
}

std::shared_ptr<Job> JobQueue::find(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

JobSnapshot JobQueue::snapshot(const Job& job) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return JobSnapshot{job.state, job.error};
}

std::optional<std::string> JobQueue::result_bytes(const Job& job) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return job.result;
}

void JobQueue::finish(Job& job, JobState state,
                      std::optional<std::string> result, std::string error) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job.state = state;
    job.result = std::move(result);
    job.error = std::move(error);
    --running_;
    switch (state) {
      case JobState::kDone: ++done_; break;
      case JobState::kFailed: ++failed_; break;
      case JobState::kCancelled: ++cancelled_; break;
      default: break;
    }
  }
  job.events.close();
  cv_.notify_all();
  fire_hook(job, state);
}

bool JobQueue::cancel(std::uint64_t id) {
  std::shared_ptr<Job> to_close;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    Job& job = *it->second;
    switch (job.state) {
      case JobState::kQueued:
        ready_.erase(std::make_pair(-job.priority, job.id));
        job.state = JobState::kCancelled;
        job.error = "cancelled while queued";
        ++cancelled_;
        to_close = it->second;
        break;
      case JobState::kRunning:
        job.cancel.store(true, std::memory_order_relaxed);
        break;
      default:
        break;  // already terminal: cancel is an idempotent no-op
    }
  }
  if (to_close) {
    to_close->events.close();
    fire_hook(*to_close, JobState::kCancelled);
  }
  return true;
}

void JobQueue::drain(bool cancel_running) {
  std::vector<std::shared_ptr<Job>> to_close;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    for (auto& [key, job] : ready_) {
      job->state = JobState::kCancelled;
      job->error = "cancelled: server draining";
      ++cancelled_;
      to_close.push_back(job);
    }
    ready_.clear();
    if (cancel_running) {
      for (auto& [id, job] : jobs_) {
        if (job->state == JobState::kRunning) {
          job->cancel.store(true, std::memory_order_relaxed);
        }
      }
    }
  }
  for (const auto& job : to_close) job->events.close();
  for (const auto& job : to_close) fire_hook(*job, JobState::kCancelled);
  cv_.notify_all();
}

bool JobQueue::draining() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

bool JobQueue::idle() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return ready_.empty() && running_ == 0;
}

void JobQueue::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
}

QueueStats JobQueue::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  QueueStats s;
  s.submitted = accepted_;
  s.done = done_;
  s.failed = failed_;
  s.cancelled = cancelled_;
  s.expired = expired_;
  s.queued = ready_.size();
  s.running = running_;
  return s;
}

}  // namespace msim::serve
