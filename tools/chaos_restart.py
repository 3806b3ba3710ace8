#!/usr/bin/env python3
"""Restart-chaos harness for the msim_serve daemon (docs/SERVICE.md,
"Durability & recovery").

Usage:
    chaos_restart.py --serve BUILD/examples/msim_serve \
                     --cli BUILD/examples/msim_cli \
                     --dir ARTIFACTS [--quick]

Exercises both supervision layers in one run:

  1. computes the offline reference bytes with `msim_cli --sweep-json`
     (process isolation, a *different* worker count than the daemon uses);
  2. starts the daemon with a --journal-dir, completes a small single-run
     job, and submits a 4T process-isolated sweep whose chaos= plan
     SIGKILLs a forked worker mid-grid (the PR-8 layer);
  3. waits until the sweep is demonstrably mid-flight, then SIGKILLs the
     *daemon* itself (the ledger layer);
  4. restarts the daemon on the same --journal-dir and demands:
     the readiness endpoint reports the replay, the completed job
     re-serves byte-identically, the interrupted sweep resumes
     server-side and its eventually-served bytes are cmp-identical to the
     offline reference (also via diff_sweep.py's ledger: resolver), and a
     POST /v1/shutdown drain exits 0.

Artifacts (logs, journals, served/offline JSON) are left under --dir for
upload on failure.  Exit 0 when every check passes, 1 otherwise.  Only
the Python standard library is used.
"""

import argparse
import http.client
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time


def fail(msg):
    print(f"FAIL {msg}", file=sys.stderr)
    sys.exit(1)


def log(msg):
    print(f"chaos_restart: {msg}", flush=True)


class Daemon:
    """One msim_serve incarnation bound to an ephemeral port."""

    def __init__(self, serve_bin, journal_dir, log_path):
        self.log_path = log_path
        self.log_file = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [serve_bin, "--port", "0", "--max-inflight", "2",
             "--journal-dir", str(journal_dir)],
            stdout=self.log_file, stderr=subprocess.STDOUT)
        self.port = self._wait_for_port()

    def _wait_for_port(self):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                fail(f"daemon exited with {self.proc.returncode} before "
                     f"listening (see {self.log_path})")
            text = pathlib.Path(self.log_path).read_text(errors="replace")
            m = re.search(r"^listening on [0-9.]+:(\d+)$", text, re.M)
            if m:
                return int(m.group(1))
            time.sleep(0.1)
        fail(f"daemon never reported its port (see {self.log_path})")

    def request(self, method, target, body=None, timeout=30):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            conn.request(method, target, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def sigkill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.log_file.close()

    def shutdown_clean(self):
        status, _ = self.request("POST", "/v1/shutdown")
        if status != 200:
            fail(f"POST /v1/shutdown returned {status}")
        code = self.proc.wait(timeout=120)
        self.log_file.close()
        if code != 0:
            fail(f"daemon exited {code} after /v1/shutdown, expected 0")


def submit(daemon, config, extra=None):
    body = {"config": config}
    body.update(extra or {})
    status, payload = daemon.request("POST", "/v1/jobs", json.dumps(body))
    if status not in (200, 202):
        fail(f"submit returned {status}: {payload.decode(errors='replace')}")
    return json.loads(payload)["id"]


def job_status(daemon, job_id):
    status, payload = daemon.request("GET", f"/v1/jobs/{job_id}")
    if status != 200:
        fail(f"GET /v1/jobs/{job_id} returned {status}")
    return json.loads(payload)


def wait_done(daemon, job_id, budget_s):
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        state = job_status(daemon, job_id)["state"]
        if state in ("done", "failed", "cancelled", "expired"):
            return state
        time.sleep(0.5)
    fail(f"job {job_id} did not finish within {budget_s}s")


def fetch_result(daemon, job_id):
    status, payload = daemon.request("GET", f"/v1/jobs/{job_id}/result")
    if status != 200:
        fail(f"GET /v1/jobs/{job_id}/result returned {status}: "
             f"{payload.decode(errors='replace')}")
    return payload


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--serve", required=True, help="msim_serve binary")
    parser.add_argument("--cli", required=True, help="msim_cli binary")
    parser.add_argument("--dir", required=True,
                        help="artifact directory (created; kept on failure)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller grid for fast local runs")
    args = parser.parse_args()

    art = pathlib.Path(args.dir)
    journals = art / "journals"
    journals.mkdir(parents=True, exist_ok=True)

    warmup, horizon = (1000, 4000) if args.quick else (2500, 10000)
    sweep_knobs = {
        "sweep": 4, "sched": "traditional,2op_block_ooo", "iq": "32",
        "warmup": warmup, "horizon": horizon, "seed": 1, "jobs": 4,
    }
    run_config = {"benchmarks": "gcc,gzip", "warmup": 500,
                  "horizon": 2000, "seed": 3}

    # 1. Offline reference (workers=3 here, workers=2 on the daemon: the
    #    bytes must be identical at any worker count).
    offline = art / "offline.json"
    log("computing offline reference sweep")
    cli_args = [args.cli] + [f"{k}={v}" for k, v in sweep_knobs.items()]
    cli_args += ["isolation=process", "workers=3",
                 "--sweep-json", str(offline)]
    res = subprocess.run(cli_args, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE)
    if res.returncode != 0:
        fail(f"offline msim_cli run failed: {res.stderr.decode()}")

    # 2. First incarnation: one completed job, one chaos sweep.
    daemon = Daemon(args.serve, journals, art / "serve-1.log")
    log(f"daemon up on port {daemon.port}")
    done_id = submit(daemon, run_config)
    if wait_done(daemon, done_id, 300) != "done":
        fail(f"job {done_id} did not complete")
    completed_bytes = fetch_result(daemon, done_id)
    (art / "completed.json").write_bytes(completed_bytes)

    sweep_config = dict(sweep_knobs)
    sweep_config.update({"isolation": "process", "workers": 2,
                         "chaos": "kill@3"})
    sweep_id = submit(daemon, sweep_config,
                      extra={"idempotency_key": "chaos-grid"})
    log(f"sweep job {sweep_id} submitted (worker chaos=kill@3)")

    # 3. Wait until the sweep is demonstrably mid-flight -- running, with
    #    journal bytes on disk -- then SIGKILL the daemon.
    main_journal = journals / f"job{sweep_id}.jsonl"
    mid_flight = False
    deadline = time.monotonic() + 300
    while time.monotonic() < deadline:
        status = job_status(daemon, sweep_id)
        if status["state"] in ("done", "failed"):
            break
        journal_bytes = sum(
            p.stat().st_size
            for p in journals.glob(f"job{sweep_id}.jsonl*"))
        if status["state"] == "running" and journal_bytes > 200:
            mid_flight = True
            break
        time.sleep(0.1)
    state_at_kill = job_status(daemon, sweep_id)["state"]
    log(f"SIGKILL daemon (sweep state: {state_at_kill}, "
        f"mid_flight={mid_flight})")
    daemon.sigkill()
    # Orphaned sweep workers die on their next heartbeat write (EPIPE);
    # give them a beat before a new supervisor forks its own.
    time.sleep(1.0)

    # 4. Second incarnation: replay, re-serve, resume, verify.
    daemon = Daemon(args.serve, journals, art / "serve-2.log")
    log(f"daemon restarted on port {daemon.port}")
    status, payload = daemon.request("GET", "/v1/healthz")
    if status != 200:
        fail(f"GET /v1/healthz returned {status}")
    health = json.loads(payload)
    (art / "healthz.json").write_bytes(payload)
    recovery = health.get("recovery", {})
    if not recovery.get("enabled"):
        fail("healthz does not report ledger recovery as enabled")
    if recovery.get("replayed", 0) < 2:
        fail(f"expected >= 2 replayed jobs, healthz says {recovery}")
    if recovery.get("completed", 0) < 1:
        fail(f"expected >= 1 recovered completed job: {recovery}")
    log(f"recovery: {recovery}")

    # Completed jobs re-serve their stored bytes verbatim.
    reserved = fetch_result(daemon, done_id)
    if reserved != completed_bytes:
        (art / "reserved.json").write_bytes(reserved)
        fail(f"job {done_id} re-served different bytes after restart")
    log(f"job {done_id} re-served byte-identically")

    # Idempotent resubmission dedupes to the recovered job, whatever state
    # it is in -- never a second execution.
    dup_id = submit(daemon, sweep_config,
                    extra={"idempotency_key": "chaos-grid"})
    if dup_id != sweep_id:
        fail(f"resubmission created job {dup_id}, expected dedupe to "
             f"{sweep_id}")
    log("idempotent resubmission deduped to the recovered sweep")

    # The interrupted sweep resumes server-side and serves bytes
    # cmp-identical to the uninterrupted offline run.
    if wait_done(daemon, sweep_id, 600) != "done":
        fail(f"recovered sweep {sweep_id} did not complete")
    served = fetch_result(daemon, sweep_id)
    (art / "served.json").write_bytes(served)
    if served != offline.read_bytes():
        fail("served sweep bytes differ from the offline engine "
             f"(cmp {offline} {art / 'served.json'})")
    log("served sweep is byte-identical to the offline reference")

    # The ledger-stored result file holds the same bytes; diff_sweep.py
    # resolves it through the ledger: spec.
    diff_tool = pathlib.Path(__file__).with_name("diff_sweep.py")
    res = subprocess.run(
        [sys.executable, str(diff_tool), str(offline),
         f"ledger:{journals}:{sweep_id}"])
    if res.returncode != 0:
        fail("diff_sweep.py rejects the ledger-stored result")

    daemon.shutdown_clean()
    log("PASS: restart-chaos contract holds "
        f"(mid_flight={mid_flight}, state_at_kill={state_at_kill})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
