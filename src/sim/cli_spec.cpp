#include "sim/cli_spec.hpp"

namespace msim::sim {

namespace {

// Printed by --help; one line per knob, mirroring the canonical knob table
// in EXPERIMENTS.md ("Harness knobs and exit codes") -- keep the two in
// sync.  tests/test_intervals.cpp (CliSpec) cross-checks every known key
// against this text, and tests/test_serve_wire.cpp the serve keys against
// the CLI keys, so a knob added to one list but not the other fails fast.
constexpr const char* kUsage = R"(usage: msim_cli [key=value | --flag value]...

Runs one simulator configuration (or a figure sweep) and prints a full
statistics report.  All knobs are key=value; GNU-style --flag value is
accepted for the flags marked below.  See the knob table in EXPERIMENTS.md
for the authoritative reference.  --help prints this text.

Machine:
  benchmarks=A,B,...    profile names, one per thread (1-8)    [gcc]
  sched=K               traditional | 2op_block | 2op_block_ooo |
                        2op_block_ooo_filtered | tag_elimination
  fetch=P               icount | round_robin | stall | flush   [icount]
  deadlock=D            dab | dab_shared | watchdog            [dab]
  iq=N  scan_depth=N  watchdog_timeout=N  oracle_disambiguation=0|1
  wrong_path=0|1

Run horizon:
  warmup=N  horizon=N  seed=N  max_cycles=N

Sampled simulation (docs/SAMPLING.md):
  mode=exact|sampled    sampled: one functional warm-up pass clusters the
                        run into phase regions; only one representative
                        region per cluster is simulated in detail and the
                        whole-run IPC / MPKI are reconstituted   [exact]
  region=N              region length, per-thread instructions   [2000]
  detail_warmup=N       detailed warm-up instructions before each
                        measured region                          [1000]
  pilot=N               detailed pilot length for per-thread commit-rate
                        pacing (0 = lockstep)                    [5000]
  --sampled-json PATH   write the msim.sampled.v1 estimate report

Sweep mode:
  sweep=2|3|4           12-mix figure sweep for that thread count
                        (iq and sched become comma lists)
  jobs=N (--jobs N)     sweep worker threads; results bit-identical
                        at any job count                       [hw conc.]
  --sweep-json PATH     write the sweep grid as JSON
  isolation=thread|process  sweep execution backend: worker threads, or
                        supervised worker processes that survive crashes
                        and hangs (docs/ROBUSTNESS.md)         [thread]
  workers=N             worker processes (implies isolation=process;
                        0 = jobs).  Surviving cells byte-identical at
                        any worker count

Observability (docs/OBSERVABILITY.md):
  --stats-json PATH     full metric registry as JSON
  --trace-out PATH      per-instruction pipeline trace
  trace_format=konata|gantt  trace_capacity=N
  interval=N            interval telemetry: capture a delta snapshot
                        (IPC, occupancy, stalls, phase fingerprints)
                        every N cycles                         [0 = off]
  --interval-json PATH  stream interval records as JSONL (schema
                        msim.intervals.v1; implies interval=10000 when
                        interval= is unset; single-run mode only)
  --progress            live progress events (run/interval/checkpoint,
                        sweep cells) on stderr
  --progress-json PATH  the same progress events as JSONL
  --chrome-trace PATH   host-time trace of run/sweep-cell spans in Chrome
                        trace-event JSON (chrome://tracing, Perfetto)
  --dump-config         print resolved MachineConfig JSON and exit

Robustness:
  verify=1              cycle-level invariant checking         [off]
  hang_cycles=N         abort after N commit-free cycles (0=off) [500000]
  fault_intensity=P  fault_seed=S  fault_index=I   fault injection
  isolate=0|1  retries=N                    sweep crash isolation
  cell_timeout_ms=N     isolation=process: wall-clock budget per sweep
                        cell; a worker exceeding it is SIGKILLed and the
                        cell retried like any other worker death (0=off,
                        complements the in-simulation hang_cycles)
  chaos=SPEC            isolation=process test knob: inject worker faults,
                        comma-separated ACTION@CELL with ACTION one of
                        kill|segv|hang and an optional trailing ! for
                        every-attempt persistence (e.g. kill@5,hang@2!)
  --diag PATH           abort diagnostic bundle    [msim-diagnostic.json]

Checkpoint / restore (docs/CHECKPOINT.md):
  --checkpoint PATH     single run: checkpoint file (periodic + on signal);
                        sweep: write-ahead journal of completed cells
  --checkpoint-every N  cycles between periodic checkpoints  [0 = on
                        interrupt only]
  --resume PATH         single run: restore checkpoint (an interval JSONL
                        stream resumes byte-identically); sweep: replay the
                        journal's completed cells, append the rest
  checkpoint_exit=N     test knob: save + exit 130 at absolute cycle N

Exit codes: 0 success; 2 bad usage or configuration error; 3 simulation
aborted (hang watchdog / invariant violation; diagnostic bundle written);
128+N killed by signal N after saving resumable state (SIGINT=130,
SIGTERM=143).
)";

constexpr std::string_view kKnownKeys[] = {
    "benchmarks", "sched", "fetch", "deadlock", "iq", "scan_depth",
    "watchdog_timeout", "oracle_disambiguation", "wrong_path", "warmup",
    "horizon", "seed", "max_cycles", "mode", "region", "detail_warmup",
    "pilot", "sampled_json", "sweep", "jobs", "sweep_json",
    "stats_json", "trace_out", "trace_format", "trace_capacity",
    "interval", "interval_json", "progress", "progress_json", "chrome_trace",
    "dump_config", "verify", "hang_cycles", "fault_intensity", "fault_seed",
    "fault_index", "isolate", "retries", "diag", "checkpoint",
    "checkpoint_every", "checkpoint_exit", "resume", "help",
    "isolation", "workers", "cell_timeout_ms", "chaos"};

constexpr std::string_view kValueFlags[] = {
    "stats_json",   "trace_out",     "trace_format", "trace_capacity",
    "jobs",         "sweep_json",    "diag",         "checkpoint",
    "checkpoint_every", "resume",    "interval",     "interval_json",
    "progress_json", "chrome_trace", "sampled_json"};

// ---------------------------------------------------------------------------
// msim_serve: daemon command line + network request surface.

constexpr const char* kServeUsage =
    R"(usage: msim_serve [key=value | --flag value]...

Experiment daemon: accepts simulation jobs as JSON over a minimal HTTP/1.1
API and serves results byte-identical to the offline msim_cli engine.  The
wire schema, queue semantics and ops runbook live in docs/SERVICE.md.

Daemon knobs:
  --port N              TCP port to listen on (0 = ephemeral; the chosen
                        port is printed as `listening on HOST:PORT`)  [0]
  --host ADDR           bind address                          [127.0.0.1]
  --queue-depth N       max queued (not yet running) jobs; a full queue
                        rejects submissions with 429              [64]
  --max-inflight N      jobs executed concurrently                 [2]
  --journal-dir DIR     durability root: the crash-recovering job ledger
                        DIR/ledger.jsonl, per-job sweep journals
                        DIR/job<id>.jsonl and result files
                        DIR/job<id>.result.json.  On restart the ledger is
                        replayed: done jobs re-serve byte-identically,
                        pending jobs re-enqueue, interrupted sweeps resume
                        from their journals                        [""]
  --io-timeout-ms N     per-socket read/write inactivity budget; slow or
                        stalled clients get 408 / are dropped    [10000]
  --help                print this text

Wire API (one-line summary; see docs/SERVICE.md):
  GET  /healthz                 liveness probe (byte-stable {"ok":true})
  GET  /v1/healthz              readiness + ledger recovery progress JSON
  GET  /v1/stats                daemon counters as JSON
  POST /v1/jobs                 submit {"config":{...}} -> 202 {"id":N};
                                optional "priority", "idempotency_key"
                                (dedupes resubmissions) and "ttl_ms"
                                (queued longer than this -> expired)
  GET  /v1/jobs/ID              job status JSON
  GET  /v1/jobs/ID/result      finished job's report (byte-identical to
                                msim_cli --stats-json / --sweep-json)
  GET  /v1/jobs/ID/events      progress stream, chunked JSONL
  POST /v1/jobs/ID/cancel      cooperative cancel (journal stays resumable)
  POST /v1/shutdown             graceful drain + exit 0

Exit codes: 0 clean shutdown (POST /v1/shutdown); 2 bad usage or bind
failure; 128+N killed by signal N after a graceful drain (SIGINT=130,
SIGTERM=143; a second signal cancels running jobs instead of waiting).
)";

constexpr std::string_view kServeKnownKeys[] = {
    "port", "host", "queue_depth", "max_inflight", "journal_dir",
    "io_timeout_ms", "help"};

constexpr std::string_view kServeValueFlags[] = {
    "port", "host", "queue_depth", "max_inflight", "journal_dir",
    "io_timeout_ms"};

// Simulation knobs a job's JSON "config" may carry.  Must stay a strict
// subset of kKnownKeys with identical spellings; config construction is
// shared with msim_cli (sim/config_build.hpp).
constexpr std::string_view kServeRequestKeys[] = {
    "benchmarks", "sched", "fetch", "deadlock", "iq", "scan_depth",
    "watchdog_timeout", "oracle_disambiguation", "wrong_path", "warmup",
    "horizon", "seed", "max_cycles", "verify", "hang_cycles",
    "fault_intensity", "fault_seed", "fault_index", "sweep", "jobs",
    "isolate", "retries", "isolation", "workers", "cell_timeout_ms",
    "chaos", "interval", "mode", "region", "detail_warmup", "pilot"};

// CLI knobs the network API refuses, each with the reason echoed in the
// 400 body.  kServeRequestKeys + kServeRejectedKeys == kKnownKeys exactly
// (tests/test_serve_wire.cpp enforces the partition).
constexpr RejectedKey kServeRejectedKeys[] = {
    {"sampled_json",
     "server-local output path; GET /v1/jobs/<id>/result serves the same "
     "bytes"},
    {"stats_json",
     "server-local output path; GET /v1/jobs/<id>/result serves the same "
     "bytes"},
    {"sweep_json",
     "server-local output path; GET /v1/jobs/<id>/result serves the same "
     "bytes"},
    {"interval_json", "server-local output path; single-run CLI streaming "
                      "only"},
    {"trace_out", "server-local output path; trace files are CLI-only"},
    {"trace_format", "trace files are CLI-only"},
    {"trace_capacity", "trace files are CLI-only"},
    {"progress",
     "terminal progress is CLI-only; stream GET /v1/jobs/<id>/events"},
    {"progress_json",
     "server-local output path; stream GET /v1/jobs/<id>/events"},
    {"chrome_trace", "server-local output path; host-time tracing is "
                     "CLI-only"},
    {"dump_config", "prints to the server's stdout; use msim_cli"},
    {"diag", "server-local output path; failures are reported in the job "
             "status"},
    {"checkpoint",
     "journal paths are assigned server-side (--journal-dir); clients never "
     "name server files"},
    {"checkpoint_every", "single-run checkpointing is CLI-only"},
    {"checkpoint_exit", "test knob that exits the process; CLI-only"},
    {"resume", "journal paths are assigned server-side (--journal-dir)"},
    {"help", "CLI flag, not a simulation knob"}};

}  // namespace

std::string_view cli_usage() { return kUsage; }

std::span<const std::string_view> cli_known_keys() { return kKnownKeys; }

std::span<const std::string_view> cli_value_flags() { return kValueFlags; }

std::string_view serve_usage() { return kServeUsage; }

std::span<const std::string_view> serve_known_keys() {
  return kServeKnownKeys;
}

std::span<const std::string_view> serve_value_flags() {
  return kServeValueFlags;
}

std::span<const std::string_view> serve_request_keys() {
  return kServeRequestKeys;
}

std::span<const RejectedKey> serve_rejected_keys() {
  return kServeRejectedKeys;
}

}  // namespace msim::sim
