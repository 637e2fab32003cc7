#!/usr/bin/env python
"""CI smoke for the live control plane (`repro serve`).

Boots the service as a real subprocess on an ephemeral port, twice.
The first, paced leg drives the whole advertised lifecycle over HTTP:

1. poll ``/status`` until the world is warm and at least one live PCS
   decision has fired under the burst trace;
2. poll ``/metrics`` until the Prometheus latency gauges appear;
3. POST a background sweep to ``/sweeps`` and drain it to ``done``.

The second leg runs perfbench's ``serve-burst`` session: windows back
to back (dilation 10^6) until ``--max-windows`` drains the session.  It
polls ``/status`` closed-loop until ``drained`` and prints how many
windows each GET advanced (not gated: runner timing varies).

Each leg ends by POSTing ``/shutdown`` and requires a clean exit (code
0, no orphan process left behind, no ``Traceback`` anywhere in the
server log).  Exits non-zero (with the captured server log) on any
missed step, so the tier-2 CI job fails loudly.  Stdlib only.
"""

import collections
import json
import re
import subprocess
import sys
import time
import urllib.request

BOOT_TIMEOUT_S = 120.0
DECISION_TIMEOUT_S = 180.0
SWEEP_TIMEOUT_S = 300.0
SHUTDOWN_TIMEOUT_S = 30.0

SERVE_ARGS = [
    sys.executable, "-m", "repro", "serve",
    "--scenario", "fanout-feed",
    "--policy", "PCS",
    "--trace-profile", "burst",
    "--rate", "25",
    "--window-s", "4",
    "--dilation", "50",
    "--profiling-conditions", "6",
    "--shape-scale", "0.2",
    "--nodes", "6",
    "--port", "0",
]

#: perfbench's ``serve-burst`` session: windows back to back, then drained.
BURST_ARGS = [
    sys.executable, "-m", "repro", "serve",
    "--scenario", "fanout-feed",
    "--policy", "PCS",
    "--trace-profile", "burst",
    "--rate", "40",
    "--window-s", "8",
    "--retrain-every", "4",
    "--dilation", "1000000",
    "--max-windows", "24",
    "--port", "0",
]

SWEEP_REQUEST = {
    "scenario": "fanout-feed",
    "policies": ["Basic", "PCS"],
    "rates": [20.0],
    "seeds": [0],
    "intervals": 2,
    "warmup_intervals": 0,
    "window_s": 4.0,
    "scale": 0.2,
    "n_nodes": 6,
}


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as resp:
        return resp.read().decode()


def post(base, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else b""
    request = urllib.request.Request(base + path, data=data, method="POST")
    with urllib.request.urlopen(request, timeout=10) as resp:
        return resp.read().decode()


def wait_for(label, deadline_s, predicate):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        value = predicate()
        if value is not None:
            print(f"ok: {label}")
            return value
        time.sleep(0.5)
    raise SystemExit(f"FAIL: timed out waiting for {label}")


def lifecycle(base):
    """The paced leg: decide, scrape the gauges, drain a sweep."""

    def warm():
        status = json.loads(get(base, "/status"))
        loop = status.get("loop") or {}
        if status["status"] == "failed":
            raise SystemExit(f"FAIL: serve failed: {status.get('error')}")
        if loop.get("n_decisions", 0) >= 1 and loop.get("n_requests", 0) > 0:
            return status
        return None

    status = wait_for(
        "live loop running with >= 1 PCS decision",
        max(BOOT_TIMEOUT_S, DECISION_TIMEOUT_S), warm,
    )
    print(
        "  windows={windows_completed} decisions={n_decisions} "
        "migrations={n_migrations}".format(**status["loop"])
    )

    def gauges():
        metrics = get(base, "/metrics")
        wanted = (
            "pcs_window_p99_seconds", "pcs_window_mean_seconds",
            "pcs_decisions_total",
        )
        return metrics if all(g in metrics for g in wanted) else None

    wait_for("latency gauges on /metrics", 60.0, gauges)

    scenarios = json.loads(get(base, "/scenarios"))["scenarios"]
    assert any(s["name"] == "fanout-feed" for s in scenarios)
    print(f"ok: /scenarios lists {len(scenarios)} scenarios")

    job = json.loads(post(base, "/sweeps", SWEEP_REQUEST))
    print(f"ok: sweep {job['id']} started ({job['total']} points)")

    def drained():
        jobs = json.loads(get(base, "/sweeps"))["sweeps"]
        state = next(j for j in jobs if j["id"] == job["id"])
        if state["status"] == "done":
            return state
        if state["status"] in ("failed", "stopped"):
            raise SystemExit(f"FAIL: sweep ended {state}")
        return None

    state = wait_for("background sweep drained", SWEEP_TIMEOUT_S, drained)
    for line in state["results"]:
        print("  ", line)


def back_to_back(base):
    """The burst leg: poll /status with no pause until the session
    drains, and print how many windows each answered GET advanced."""
    deadline = time.monotonic() + max(BOOT_TIMEOUT_S, DECISION_TIMEOUT_S)
    seen = []
    while time.monotonic() < deadline:
        status = json.loads(get(base, "/status"))
        if status["status"] == "failed":
            raise SystemExit(f"FAIL: serve failed: {status.get('error')}")
        if "loop" in status:
            seen.append(status["loop"]["windows_completed"])
        if status["status"] == "drained":
            break
    else:
        raise SystemExit("FAIL: timed out waiting for the session to drain")
    print(f"ok: drained after {seen[-1]} windows")
    advanced = collections.Counter(b - a for a, b in zip(seen, seen[1:]))
    print(
        f"  windows advanced per GET over {len(seen) - 1} GETs (not gated): "
        + ", ".join(f"{k}: {advanced[k]}" for k in sorted(advanced))
    )


def run_leg(label, argv, drive):
    """Boot ``repro serve`` with ``argv``, run ``drive`` against it, then
    POST /shutdown and require a clean exit."""
    print(f"== {label}")
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    log = ""
    try:
        announce = proc.stdout.readline()
        print("serve:", announce.strip())
        match = re.search(r"http://[\d.]+:(\d+)", announce)
        if not match:
            raise SystemExit(f"FAIL: no listening address in {announce!r}")
        base = f"http://127.0.0.1:{match.group(1)}"
        drive(base)
        print(post(base, "/shutdown").strip())
        code = proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"FAIL: serve exited {code}")
        log = proc.stdout.read()
        if "Traceback" in log:
            raise SystemExit("FAIL: the serve log holds a traceback")
        print("ok: clean shutdown (exit 0, no orphans, no traceback)")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            print("WARN: serve process had to be killed", file=sys.stderr)
        log += proc.stdout.read()
        if log:
            print("--- serve log tail ---")
            print(log)


def main() -> int:
    run_leg("paced session: decide, gauges, sweep", SERVE_ARGS, lifecycle)
    run_leg("back-to-back session, drained", BURST_ARGS, back_to_back)
    return 0


if __name__ == "__main__":
    sys.exit(main())
