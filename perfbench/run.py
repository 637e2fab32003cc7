"""The repository benchmark: four workloads of the PCS reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload quick --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/README.md`` says why each was chosen):

- ``quick``: ``repro quick --rate 200`` (Basic vs PCS), one fresh
  interpreter per run;
- ``routing-grid``: ``repro sweep`` over six routing policies at 10, 50
  and 200 req/s on nutch-search, serially;
- ``serve-burst``: ``repro serve`` on fanout-feed with PCS under the
  burst profile, driven by one closed-loop HTTP client that GETs
  ``/status`` back to back until the session drains;
- ``fig7-scale``: flat 640x128 PCS decisions and a 2560x128 hierarchical
  one with the oracle predictor.

Every session runs in a fresh interpreter (``perfbench/session.py``) with
``--workers 1``.  A run's inputs are many seeds derived from ``--seed``,
one session each; the second session repeats the first seed, and the
benchmark checks that the repeat is bit-identical.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` each unit runs once untraced and
once traced, and the metrics are the per-layer ones (``tracer.py``) plus
the tracing overhead.  Earlier lines are the human-readable report: the
output checks, the metrics under their workload-specific names, and the
host context.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import session  # noqa: E402  (the benchmark's own modules, next to this file)
import tracer  # noqa: E402

SESSION = session.__file__
TRACE_DIR = ".perfbench"
UNIT_TIMEOUT_S = 120.0

#: Paper figures printed beside the reproduction's numbers.
PAPER_TAIL_REDUCTION_PCT = 67.05
PAPER_MEAN_REDUCTION_PCT = 64.16
PAPER_FIG7_MS = 551.0


@dataclass
class Measurement:
    """Everything one benchmark run collects."""

    setups_s: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    ops_ms: list = field(default_factory=list)
    work: float = 0.0
    work_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    named: dict = field(default_factory=dict)  # name -> (value, unit)
    #: seed -> one record per session at that seed.
    runs: dict = field(default_factory=lambda: defaultdict(list))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def fail(self, name: str, detail: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.check(name, False, detail)


class SessionFailed(RuntimeError):
    """A session process failed or printed no report."""


def session_argv(workload: str, seed: int, trace_path=None) -> list:
    argv = [sys.executable, SESSION, workload, "--seed", str(seed)]
    if trace_path is not None:
        argv += ["--trace", trace_path]
    return argv


def session_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_session(argv: list):
    """Run one session to the end; returns (report, wall_s, t_launch)."""
    t_launch = time.monotonic()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=session_env(),
    )
    try:
        out, err = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SessionFailed(f"{argv[2]} session timed out")
    wall = time.monotonic() - t_launch
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SessionFailed(
            f"{argv[2]} session exited {proc.returncode}: {err.strip()[-2000:]}"
        )
    return json.loads(lines[-1]), wall, t_launch


def subseed(seed: int, index: int) -> int:
    """The ``index``-th input seed of a run started with ``seed``."""
    return seed * 100 + index


def percentile(values, q):
    """Nearest-rank percentile (the repository's own convention)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def measure(workload, seed: int, seconds: float, m: Measurement) -> None:
    """Sessions on seeds 0, 0, 1, 2, ... while another still fits in
    ``seconds`` (judged by the last one's duration), at least
    ``workload.min_sessions``."""
    start = time.monotonic()
    took = 0.0
    index = 0
    while index < workload.min_sessions or time.monotonic() - start + took <= seconds:
        t0 = time.monotonic()
        workload.one(subseed(seed, 0 if index == 1 else index), m)
        took = time.monotonic() - t0
        index += 1


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Quick:
    """``repro quick --rate 200``: cold start, training, small-m decisions."""

    min_sessions = 8
    trace_units = 3

    def one(self, s, m, trace_path=None):
        try:
            report, wall, t_launch = run_session(
                session_argv("quick", s, trace_path)
            )
        except SessionFailed as exc:
            m.fail("quick.session", str(exc))
            return None
        m.attempted += 1
        results = report["results"]
        if report["exit_code"] != 0 or not all(
            results[p]["n_requests"] > 0 and math.isfinite(results[p]["p99_ms"])
            for p in ("Basic", "PCS")
        ):
            m.failed += 1
            return wall
        m.setups_s.append(report["first_window_at"] - t_launch + report["train_s"])
        m.rss_mb.append(report["rss_mb"])
        m.runs[s].append({"wall_s": wall, "results": results})
        return wall

    def finish(self, m, seed):
        runs = m.runs
        m.check(
            "quick.deterministic",
            all(r["results"] == rs[0]["results"] for rs in runs.values() for r in rs),
            "the repeated seed reports identical Basic and PCS results",
        )
        for rs in runs.values():
            wall = statistics.median(r["wall_s"] for r in rs)
            m.ops_ms.append(wall * 1e3)
            m.work += sum(p["n_requests"] for p in rs[0]["results"].values())
            m.work_s += wall
        first = [rs[0]["results"] for rs in runs.values()]
        wins = sum(r["PCS"]["p99_ms"] < r["Basic"]["p99_ms"] for r in first)
        m.check(
            "quick.pcs_beats_basic_p99",
            2 * wins > len(first),
            f"PCS p99 < Basic p99 on {wins} of {len(first)} seeds",
        )
        m.named["quick_wall_s"] = (statistics.median(m.ops_ms) / 1e3, "s")
        pinned = runs[subseed(seed, 0)][0]["results"]
        m.named["pcs_p99_ms"] = (pinned["PCS"]["p99_ms"], "ms")
        m.named["pcs_mean_ms"] = (pinned["PCS"]["mean_ms"], "ms")
        m.named["basic_p99_ms"] = (pinned["Basic"]["p99_ms"], "ms")
        m.named["basic_mean_ms"] = (pinned["Basic"]["mean_ms"], "ms")
        for key, paper in (
            ("p99", PAPER_TAIL_REDUCTION_PCT),
            ("mean", PAPER_MEAN_REDUCTION_PCT),
        ):
            cut = statistics.median(
                100 * (1 - r["PCS"][key + "_ms"] / r["Basic"][key + "_ms"])
                for r in first
            )
            m.named[f"median_{key}_reduction_pct"] = (cut, "%")
            print(
                f"  PCS vs Basic {key}: median -{cut:.2f} % over "
                f"{len(first)} seeds (paper: -{paper} %)"
            )


class Grid:
    """``repro sweep``: simulator, routing kernels, Lindley scans."""

    min_sessions = 4
    trace_units = 2

    def one(self, s, m, trace_path=None):
        try:
            report, wall, t_launch = run_session(
                session_argv("grid", s, trace_path)
            )
        except SessionFailed as exc:
            m.fail("grid.session", str(exc))
            return None
        m.setups_s.append(report["ready_at"] - t_launch)
        m.rss_mb.append(report["rss_mb"])
        for point in report["points"]:
            m.attempted += 1
            if not (math.isfinite(point["p99_ms"]) and point["n_requests"] > 0):
                m.failed += 1
        m.runs[s].append(report)
        return wall

    def finish(self, m, seed):
        m.check(
            "grid.deterministic",
            all(g["digest"] == gs[0]["digest"] for gs in m.runs.values() for g in gs),
            "the repeated grid has an identical metrics_dict()",
        )
        helps = hurts = ordered = 0
        for grids in m.runs.values():
            for point in (p for grid in grids for p in grid["points"]):
                m.ops_ms.append(point["wall_s"] * 1e3)
                m.work += point["n_requests"]
                m.work_s += point["wall_s"]
            p99 = {(p["policy"], p["rate"]): p["p99_ms"] for p in grids[0]["points"]}
            helps += p99["RED-3", 10.0] < p99["Basic", 10.0]
            hurts += p99["RED-5", 200.0] > p99["RED-3", 200.0]
            ordered += p99["RED-5", 200.0] > p99["RED-3", 200.0] > p99["Basic", 200.0]
        n = len(m.runs)
        m.check(
            "grid.help_then_hurt",
            helps == n and hurts == n,
            f"RED-3 < Basic at 10 req/s on {helps}/{n} seeds; "
            f"RED-5 > RED-3 at 200 req/s on {hurts}/{n} seeds",
        )
        print(f"  (not gated) RED-5 > RED-3 > Basic at 200 req/s on {ordered}/{n} seeds")
        m.named["sim_requests_per_s"] = (m.work / m.work_s, "1/s")
        m.named["point_p50_ms"] = (statistics.median(m.ops_ms), "ms")
        m.named["point_p90_ms"] = (percentile(m.ops_ms, 90), "ms")


class Serve:
    """``repro serve``: live decisions, retrain, HTTP beside compute."""

    min_sessions = 4
    trace_units = 2

    @staticmethod
    def _request(port, method, path):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request(method, path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def one(self, s, m, trace_path=None):
        argv = session_argv("serve", s, trace_path)
        # The server's stderr is read only after it exits, so it goes to a
        # file rather than to a pipe that could fill up mid-session.
        os.makedirs(TRACE_DIR, exist_ok=True)
        log_path = os.path.join(TRACE_DIR, "serve-stderr.log")
        t_launch = time.monotonic()
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=log, text=True,
                env=session_env(),
            )
        try:
            return self._drive(proc, t_launch, s, m)
        except (SessionFailed, OSError, ValueError, KeyError) as exc:
            m.fail("serve.session", f"{type(exc).__name__}: {exc}")
            return None
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.communicate()

    def _drive(self, proc, t_launch, s, m):
        found = re.search(r"http://[\d.]+:(\d+)", proc.stdout.readline())
        if not found:
            raise SessionFailed("serve did not announce its port")
        port = int(found.group(1))
        first = last = None
        # window count seen -> latency of the first GET that saw it: that
        # GET waited out the compute of the window that had just finished.
        waits = {}
        while time.monotonic() < t_launch + UNIT_TIMEOUT_S:
            start = time.monotonic()
            status, body = self._request(port, "GET", "/status")
            took = time.monotonic() - start
            if first is not None:
                m.attempted += 1
            if status != 200:
                if first is not None:
                    m.failed += 1
                continue
            payload = json.loads(body)
            state = payload["status"]
            if first is None:
                if state not in ("running", "drained"):
                    if state not in ("starting", "warming"):
                        raise SessionFailed(f"serve session {state!r}: {payload}")
                    continue
                m.setups_s.append(time.monotonic() - t_launch)
                m.attempted += 1
                first = payload
            last = payload
            waits.setdefault(payload["loop"]["windows_completed"], took * 1e3)
            if state == "drained":
                break
        else:
            raise SessionFailed("serve session did not drain in time")
        self._request(port, "POST", "/shutdown")
        out, _ = proc.communicate(timeout=UNIT_TIMEOUT_S)
        wall = time.monotonic() - t_launch
        loop = last["loop"]
        if not (
            proc.returncode == 0
            and loop["windows_completed"] == session.SERVE_WINDOWS
            and loop["n_decisions"] == session.SERVE_WINDOWS
        ):
            m.check(
                "serve.drained",
                False,
                f"exit {proc.returncode}, {loop['windows_completed']} windows, "
                f"{loop['n_decisions']} decisions",
            )
        m.rss_mb.append(json.loads(out.strip().splitlines()[-1])["rss_mb"])
        m.runs[s].append(
            {
                "waits": waits,
                "windows": loop["windows_completed"]
                - first["loop"]["windows_completed"],
                "span_s": last["uptime_s"] - first["uptime_s"],
                "result": [
                    loop[k] for k in ("n_requests", "n_migrations", "n_retrains")
                ],
            }
        )
        return wall

    def finish(self, m, seed):
        m.check(
            "serve.drained",
            not any(name == "serve.drained" for name, _, _ in m.checks),
            f"every session drained after {session.SERVE_WINDOWS} windows with "
            f"as many decisions and exited 0",
        )
        m.check(
            "serve.deterministic",
            all(r["result"] == rs[0]["result"] for rs in m.runs.values() for r in rs),
            "the repeated session serves the same requests, migrations and "
            "retrains",
        )
        for r in (r for rs in m.runs.values() for r in rs):
            m.work += r["windows"]
            m.work_s += r["span_s"]
            m.ops_ms += r["waits"].values()
        m.named["serve_windows_per_s"] = (m.work / m.work_s, "1/s")
        m.named["status_p50_ms"] = (statistics.median(m.ops_ms), "ms")
        m.named["status_p90_ms"] = (percentile(m.ops_ms, 90), "ms")
        m.named["status_samples"] = (len(m.ops_ms), "count")


class Fig7:
    """Fig. 7's 640x128 decision time and the section VI-D hierarchy."""

    min_sessions = 3
    trace_units = 2

    def one(self, s, m, trace_path=None):
        try:
            report, wall, t_launch = run_session(session_argv("fig7", s, trace_path))
        except SessionFailed as exc:
            m.fail("fig7.session", str(exc))
            return None
        m.setups_s.append(report["ready_at"] - t_launch)
        m.rss_mb.append(report["rss_mb"])
        for d in [report["hier"]] + report["flat"]:
            m.attempted += 1
            if d["migrations"] < 1 or not d["gain_ms"] > 0:
                m.failed += 1
        m.runs[s].append(report)
        return wall

    def finish(self, m, seed):
        def outcomes(report):
            return [(d["migrations"], d["gain_ms"]) for d in report["flat"]]

        m.check(
            "fig7.deterministic",
            all(outcomes(r) == outcomes(rs[0]) for rs in m.runs.values() for r in rs),
            "the repeated instance set gives identical migrations and gains",
        )
        m.check(
            "fig7.migrates",
            m.failed == 0,
            "every decision migrates at least once and predicts a positive gain",
        )
        for r in (r for rs in m.runs.values() for r in rs):
            for d in r["flat"]:
                m.ops_ms.append(d["ms"])
                m.work += d["m"]
                m.work_s += d["ms"] / 1e3
        hier = [r["hier"]["ms"] for rs in m.runs.values() for r in rs]
        m.named["decision_p50_ms"] = (statistics.median(m.ops_ms), "ms")
        m.named["hier_decision_ms"] = (statistics.median(hier), "ms")
        m.named["predicted_gain_ms"] = (
            sum(d["gain_ms"] for d in m.runs[subseed(seed, 0)][0]["flat"]),
            "ms",
        )
        m.named["components_per_s"] = (m.work / m.work_s, "1/s")
        print(f"  paper (Fig. 7): {PAPER_FIG7_MS:.0f} ms per 640x128 decision")


WORKLOADS = {
    "quick": Quick,
    "routing-grid": Grid,
    "serve-burst": Serve,
    "fig7-scale": Fig7,
}


# ----------------------------------------------------------------------
# reduction and reporting
# ----------------------------------------------------------------------
def host_context() -> dict:
    """Recorded beside each result; never gated."""
    sha = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        cal, _, _ = run_session(session_argv("calibrate", 0))
    except SessionFailed:
        cal = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": cal.get("numpy"),
        "git_sha": sha,
        "lindley_calibration_ms": cal.get("lindley_calibration_s", math.nan) * 1e3,
    }


def measure_traced(workload, seed: int, m: Measurement) -> dict:
    """Each unit once untraced and once traced, alternating which is first."""
    shutil.rmtree(TRACE_DIR, ignore_errors=True)
    os.makedirs(TRACE_DIR)
    plain, traced, paths = [], [], []
    for index in range(workload.trace_units):
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            path = None
            if with_trace:
                path = os.path.join(TRACE_DIR, f"session-{index}.jsonl")
            wall = workload.one(subseed(seed, index), m, trace_path=path)
            if wall is not None:
                (traced if with_trace else plain).append(wall)
                if path is not None:
                    paths.append(path)
    spans, counts, sums = tracer.load(paths)
    metrics = tracer.aggregate(spans, counts, sums)
    metrics["trace.overhead_s"] = (sum(traced) - sum(plain)) / max(1, len(traced))
    metrics["trace.overhead_pct"] = 100 * (sum(traced) / sum(plain) - 1)
    metrics["trace.spans"] = len(spans)
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.endswith("duplicate_load"):
        return "copies/req"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="PCS reproduction benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print(
            "error: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2

    workload = WORKLOADS[args.workload]()
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"seconds {args.seconds:g}  trace {args.trace}"
    )
    m = Measurement()
    if args.trace:
        metrics = measure_traced(workload, args.seed, m)
    else:
        measure(workload, args.seed, args.seconds, m)
    if not m.runs:
        print("error: no unit of work completed", file=sys.stderr)
        for name, _, detail in m.checks:
            print(f"  {name}: {detail}", file=sys.stderr)
        return 1
    workload.finish(m, args.seed)

    failed_checks = [c for c in m.checks if not c[1]]
    named = dict(m.named)
    named["setup_s"] = (statistics.median(m.setups_s), "s")
    named["peak_rss_mb"] = (statistics.median(m.rss_mb), "MiB")
    named["error_rate"] = (
        (m.failed + len(failed_checks)) / m.attempted,
        "failed/attempted",
    )
    for name, ok, detail in m.checks:
        line = f"check {name}: {'ok' if ok else 'FAILED'}  {detail}"
        print(line)
        if not ok:
            print(line, file=sys.stderr)
    for name, (value, unit) in named.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("host " + json.dumps(host_context(), sort_keys=True))

    if args.trace:
        report = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in metrics.items()
        }
        for name, value in metrics.items():
            if name.endswith("_self_s") and value:
                print(f"layer {name} = {value:.6g} s")
        print(
            f"trace overhead: {metrics['trace.overhead_pct']:.2f} % "
            f"({metrics['trace.overhead_s']:.4f} s per unit)"
        )
    else:
        report = {
            "setup_s": {"value": named["setup_s"][0], "unit": "s"},
            "peak_rss_mb": {"value": named["peak_rss_mb"][0], "unit": "MiB"},
            "op_p50_ms": {"value": statistics.median(m.ops_ms), "unit": "ms"},
            "work_per_s": {"value": m.work / m.work_s, "unit": "1/s"},
        }
    print(
        json.dumps(
            {
                "correct": not failed_checks and m.failed == 0,
                "attempted": m.attempted,
                "failed": m.failed + len(failed_checks),
                "metrics": report,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
