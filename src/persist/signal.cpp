#include "persist/signal.hpp"

#include <csignal>

namespace msim::persist {

namespace {

volatile std::sig_atomic_t g_pending_signal = 0;

void flag_handler(int signum) { g_pending_signal = signum; }

struct sigaction g_prev_int;
struct sigaction g_prev_term;

}  // namespace

SignalGuard::SignalGuard() {
  struct sigaction sa = {};
  sa.sa_handler = &flag_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: let blocking IO see the interruption
  (void)sigaction(SIGINT, &sa, &g_prev_int);
  (void)sigaction(SIGTERM, &sa, &g_prev_term);
}

SignalGuard::~SignalGuard() {
  (void)sigaction(SIGINT, &g_prev_int, nullptr);
  (void)sigaction(SIGTERM, &g_prev_term, nullptr);
}

int signal_pending() noexcept { return static_cast<int>(g_pending_signal); }

void clear_pending_signal() noexcept { g_pending_signal = 0; }

void reset_signals_in_forked_child() noexcept {
  struct sigaction dfl = {};
  dfl.sa_handler = SIG_DFL;
  sigemptyset(&dfl.sa_mask);
  (void)sigaction(SIGINT, &dfl, nullptr);
  (void)sigaction(SIGTERM, &dfl, nullptr);
  g_pending_signal = 0;
}

}  // namespace msim::persist
