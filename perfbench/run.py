#!/usr/bin/env python3
"""memdecide benchmark: end-to-end and per-layer numbers for the CLI.

Run from the repository root (nothing to build; ``src/`` is imported as is):

    python3 perfbench/run.py --workload trace_integration
    python3 perfbench/run.py --workload sweep_reference --seed 7 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all

One benchmark process runs one workload at a time. Every CLI invocation is a
fresh ``python3 perfbench/child.py`` process that imports ``src/memdecide``
and calls ``memdecide.cli.main`` with ``--seed``, ``--out`` and ``--threads``;
the seed reaches the program only through ``--seed``. A run does untimed
warm-up invocations at a small budget and six set-up probes, then invokes the
workload's scenarios in turn until ``--seconds`` have passed, each at least
once. The loop is closed, with one client: an invocation starts when the
previous one has exited. Metrics are per pass, one invocation of every
scenario: the sum of each scenario's median. Every output CSV is checked
against the reference rows in ``perfbench/golden/`` (copies of the committed
``out/`` files): grid, labels, time axis and budgets exactly, statistics
within ``Z_BOUND`` standard errors.

``--trace 0`` prints the end-to-end metrics. Their times are CPU seconds of
the CLI processes (user + system, all threads), which leave out the time a
shared host withholds the CPUs from the guest ("steal"); the wall time of a
pass and the steal during it are printed and recorded beside them, but not
reported as metrics. ``--trace 1`` runs one untraced pass, then traced
passes in which ``child.py`` wraps each layer's public functions in spans, and
prints the per-layer metrics. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A record with
the environment, every invocation and every check goes to ``perfbench/_work/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
GOLDEN = BENCH / "golden"

# The bundled configs' seed.
DEFAULT_SEED = 20260206
# Invocations still running this long after a run starts are killed, and no
# new one starts that would end later, so that a run ends within 180 s.
DEADLINE_S = 170.0
# Set-up probes per run, spread evenly over the workload's scenarios.
SETUP_PROBES = 6
# Statistical checks allow this many standard errors of the difference
# between a run and the reference. Over ~5,000 checks per trace pass the
# false-alarm rate stays below 1e-5; a defect that shifts a whole series or
# grid is caught by the aggregate checks, which use the same bound.
Z_BOUND = 6.0
WARMUP_BUDGET = {"trace": {"repeats": 5}, "sweep": {"trials": 20}}

_PULSES = {"n_pulses": 50, "rate_hz": 10.0}

# Scenario sections of the bundled configs/*.cfg, frozen here so that an edit
# to a bundled config cannot change the benchmark's work. Budgets are the
# committed ones, except fig3e: 200 trials per cell instead of 1000 keeps one
# invocation near 7 s; its reference rows still have 1000 trials.
SCENARIOS = {
    "fig2b": ("trace", {
        "n_devices": 50, "p_on": [0.01, 0.02, 0.05, 0.1], "i_cc_uA": 300.0,
        "pulses": _PULSES, "sample_rate_hz": 100.0, "repeats": 200, "tail_s": 2.0,
    }),
    "fig2c": ("trace", {
        "n_devices": 50, "p_on": 0.1, "i_cc_uA": [10.0, 100.0, 300.0],
        "pulses": _PULSES, "sample_rate_hz": 100.0, "repeats": 200, "tail_s": 2.0,
    }),
    "fig3d": ("sweep", {
        "durations_s": [0.5, 2.0, 20.0], "ratios": [[40, 20], [20, 10], [2, 1]],
        "device_counts": [20], "i_cc_values_uA": [270.0], "p_on_values": [0.05],
        "trials": 1000,
    }),
    "fig3e": ("sweep", {
        "durations_s": [0.5, 2.0], "ratios": [[40, 20], [20, 10]],
        "device_counts": [3, 5, 10, 20, 30, 50, 100], "i_cc_values_uA": [270.0],
        "p_on_values": [0.05], "trials": 200,
    }),
    "fig3f": ("sweep", {
        "durations_s": [2.0], "ratios": [[40, 20]], "device_counts": [20],
        "i_cc_values_uA": [270.0], "p_on_values": [0.01, 0.02, 0.05, 0.1, 0.2, 0.4],
        "trials": 1000, "retention_median_s": 2.0, "sigma_log": 0.5,
    }),
}
CSV_NAME = {"trace": "trace.csv", "sweep": "report.csv"}


@dataclass(frozen=True)
class Workload:
    threads: int
    scenarios: tuple[str, ...]


# Why each workload exists is recorded in BENCHMARK.json. In short:
# trace_integration is read-dominated and bypasses network, random streams and
# per-trial seeding; sweep_reference is pulse-dominated, and its 2/1 cells
# make per-trial overhead dominate; sweep_size_threads is the only workload on
# the ThreadPoolExecutor path and the only one at N=100.
WORKLOADS = {
    "trace_integration": Workload(1, ("fig2b", "fig2c")),
    "sweep_reference": Workload(1, ("fig3f", "fig3d")),
    "sweep_size_threads": Workload(2, ("fig3e",)),
}

END_TO_END = {
    "cpu_s": "s",
    "setup_s": "s",
    "sim_events_per_cpu_s": "1/s",
    "peak_rss_mb": "MiB",
}

# Layers reported by calls and self time, as named by child.LAYER_TARGETS.
TIMED_LAYERS = (
    "calibration.device_params",
    "seeding.spawn_rng",
    "stream.generate_random",
    "device.retention_sample",
    "device.switching_probability",
    "synapse.stimulate",
    "synapse.read",
    "synapse.trace",
    "network.run_trial",
    "experiment.estimate_accuracy",
    "experiment.run_trace_experiment",
    "reports.write_csv",
)
LATENCY_LAYERS = ("synapse.stimulate", "network.run_trial")
WORK_COUNTS = ("trials", "pulse_deliveries", "synapse_reads", "retention_draws", "ties")


def per_layer_units() -> dict:
    units = {"cli.import_s": "s", "cli.validate_s": "s"}
    for layer in TIMED_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        if layer in LATENCY_LAYERS:
            units[f"{layer}.p50_us"] = "us"
            units[f"{layer}.p99_us"] = "us"
    units.update({
        "network.tie_ratio": "ratio",
        "experiment.sweep.parallel_efficiency": "ratio",
        "reports.rows": "count",
        "reports.bytes": "B",
        **{f"work.{name}": "count" for name in WORK_COUNTS},
        "golden_rows_identical": "count",
        "tracing.overhead_s": "s",
    })
    return units


PER_LAYER = per_layer_units()

CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


def steal_s() -> float:
    """Seconds the host has withheld this guest's CPUs, summed over CPUs."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# --- environment -------------------------------------------------------------


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "child_env": {k: CHILD_ENV[k] for k in
                      ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# --- one CLI invocation ------------------------------------------------------


def write_config(name: str, tag: str, overrides: dict | None = None) -> Path:
    command, section = SCENARIOS[name]
    path = WORK / "configs" / f"{name}-{tag}.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({command: dict(section, **(overrides or {}))}, indent=1))
    return path


def run_cli(name: str, config: Path, out_dir: Path, seed: int, threads: int,
            mode: str, run_id: int, deadline: float) -> dict:
    """Run one child process; return its wall and CPU times, peak RSS and span summary."""
    command = SCENARIOS[name][0]
    (out_dir / CSV_NAME[command]).unlink(missing_ok=True)
    spans = WORK / "spans" / f"{name}-{mode}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    spans.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "child.py"), "--result", str(spans), "--src", str(SRC),
        "--mode", mode, "--run-id", str(run_id), "--",
        command, "--config", str(config), "--seed", str(seed), "--out", str(out_dir),
        "--threads", str(threads),
    ]
    with open(WORK / "child.log", "ab") as log:
        log.write(f"$ {' '.join(cmd)}\n".encode())
        log.flush()
        steal0 = steal_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdout=log, stderr=log)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        steal = steal_s() - steal0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"name": name, "mode": mode, "run_id": run_id, "exit_code": proc.returncode,
              "wall_s": wall, "steal_s": steal, "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if spans.is_file():
        summary = span_summary(spans)
        result.update(summary)
        if summary["setup_cpu_s"] >= 0.0:
            result["setup_s"] = summary["setup_cpu_s"]
    if proc.returncode != 0:
        print(f"perfbench: {name} ({mode}) exited {proc.returncode}; see {WORK / 'child.log'}",
              file=sys.stderr)
    return result


def span_summary(path: Path) -> dict:
    """Calls, self time (span minus its children) and latencies per span name."""
    import numpy as np

    with np.load(path) as z:
        data = {key: z[key] for key in z.files}
    names = [str(n) for n in data["names"]]
    sid, code, parent = data["sid"], data["code"], data["parent"]
    dur = data["end"] - data["start"]
    order = np.argsort(sid)
    nested = parent >= 0
    owner = order[np.searchsorted(sid, parent[nested], sorter=order)]
    self_time = dur - np.bincount(owner, weights=dur[nested], minlength=dur.size)
    layers = {}
    for c, name in enumerate(names):
        mask = code == c
        layers[name] = {
            "calls": int(mask.sum()),
            "self_s": float(self_time[mask].sum()),
            "total_s": float(dur[mask].sum()),
        }
        if name in LATENCY_LAYERS:
            layers[name]["durations"] = dur[mask]
    return {
        "layers": layers,
        "import_s": float(data["import_s"]),
        "validate_s": layers.get("cli.validate", {}).get("total_s", 0.0),
        "setup_cpu_s": float(data["setup_cpu_s"]),
        "retention_draws": int(data["retention_draws"]),
        "missing": [m for m in str(data["missing"]).split(",") if m],
    }


# --- output checks -----------------------------------------------------------


def _data_rows(path: Path) -> tuple[str, list[str]]:
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return lines[0], lines[1:]


def _diff_sd(k1: float, n1: float, k2: float, n2: float) -> float:
    """Standard error of p1 - p2 for two binomial proportions, pooled and smoothed."""
    p = (k1 + k2 + 1.0) / (n1 + n2 + 2.0)
    return math.sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2))


def _check_trace(section: dict, rows: list, golden: list, errors: list) -> dict:
    n, repeats = section["n_devices"], section["repeats"]
    gold_repeats = int(golden[0][6])
    series = {}
    for r, g in zip(rows, golden):
        if r[:4] != g[:4] or r[6] != str(repeats):
            errors.append(f"series/time axis/repeats differ: {r[:4] + r[6:]} vs {g[:4] + g[6:]}")
            break
        p, pg = float(r[4]) / n, float(g[4]) / n
        sd = _diff_sd(p * n * repeats, n * repeats, pg * n * gold_repeats, n * gold_repeats)
        if abs(p - pg) > Z_BOUND * sd:
            errors.append(f"{r[0]} t={r[3]}: mean count {r[4]} vs reference {g[4]}")
        stats = series.setdefault(r[0], [0.0, 0.0, 0])
        stats[0] += p - pg
        stats[1] += sd
        stats[2] += 1
    # Samples of one series are correlated; the mean of their standard
    # errors bounds the standard error of the mean difference.
    for label, (diff, sd, count) in series.items():
        if abs(diff) > Z_BOUND * sd:
            errors.append(f"{label}: mean difference {diff / count:.4g} over the series")
    return {
        "trials": 0,
        "pulse_deliveries": len(series) * repeats * section["pulses"]["n_pulses"],
        "synapse_reads": len(rows) * repeats,
        "ties": 0,
    }


def _check_sweep(section: dict, rows: list, golden: list, errors: list) -> dict:
    counts = dict.fromkeys(("trials", "pulse_deliveries", "synapse_reads", "ties"), 0)
    total = {"accuracy": [0.0, 0.0], "tie share": [0.0, 0.0]}
    for r, g in zip(rows, golden):
        if r[:6] != g[:6] or r[9] != str(section["trials"]):
            errors.append(f"grid/n_trials differ: {r[:6] + r[9:10]} vs {g[:6]}")
            break
        trials, ties, gold_trials = int(r[9]), int(r[10]), int(g[9])
        accuracy, ci_low, ci_high = float(r[6]), float(r[7]), float(r[8])
        if not (0.0 <= ci_low <= accuracy <= ci_high <= 1.0 and 0 <= ties <= trials):
            errors.append(f"cell {r[:6]}: inconsistent accuracy/CI/ties {r[6:]}")
        for what, x, xg in (("accuracy", accuracy, float(g[6])),
                            ("tie share", ties / trials, int(g[10]) / gold_trials)):
            sd = _diff_sd(x * trials, trials, xg * gold_trials, gold_trials)
            if abs(x - xg) > Z_BOUND * sd:
                errors.append(f"cell {r[:6]}: {what} {x:.4g} vs reference {xg:.4g}")
            total[what][0] += x - xg
            total[what][1] += sd * sd
        counts["trials"] += trials
        counts["pulse_deliveries"] += trials * (int(r[1]) + int(r[2]))
        counts["synapse_reads"] += 2 * trials
        counts["ties"] += ties
    # Cells are independent, so their differences add in quadrature.
    for what, (diff, var) in total.items():
        if abs(diff) > Z_BOUND * math.sqrt(var):
            errors.append(f"{what}: summed difference {diff:.4g} over the grid")
    return counts


def check_output(name: str, out_dir: Path) -> tuple[list, dict]:
    """Compare one output CSV with its reference; return errors and work counts."""
    command, section = SCENARIOS[name]
    path = out_dir / CSV_NAME[command]
    gold_header, gold_rows = _data_rows(GOLDEN / f"{name}.csv")
    try:
        header, rows = _data_rows(path)
    except (OSError, IndexError) as exc:
        return [f"{name}: no output CSV ({exc})"], {}
    if header != gold_header or len(rows) != len(gold_rows):
        return [f"{name}: header or row count differs from the reference"], {}
    errors = []
    split, gold_split = [r.split(",") for r in rows], [g.split(",") for g in gold_rows]
    check = _check_trace if command == "trace" else _check_sweep
    try:
        counts = check(section, split, gold_split, errors)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return [f"{name}: malformed output row ({exc!r})"], {}
    counts.update(
        csv_rows=len(rows),
        csv_bytes=path.stat().st_size,
        golden_rows_identical=sum(a == b for a, b in zip(rows, gold_rows)),
    )
    return [f"{name}: {e}" for e in errors[:5]], counts


# --- a run -------------------------------------------------------------------


class Run:
    """One benchmark run of one workload: its invocations and their checks."""

    def __init__(self, workload: str, seed: int):
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.invocations: list[dict] = []
        self.configs = {name: write_config(name, "bench") for name in self.spec.scenarios}

    def invoke(self, name: str, mode: str, config: Path | None = None,
               check: bool = False) -> dict:
        out_dir = WORK / "out" / name
        result = run_cli(name, config or self.configs[name], out_dir, self.seed,
                         self.spec.threads, mode, len(self.invocations), self.deadline)
        errors = [] if result["exit_code"] == 0 else [f"{name}: exit code {result['exit_code']}"]
        if mode != "probe" and result["exit_code"] == 0 and "setup_s" not in result:
            errors.append(f"{name}: no simulation entry point was called")
        if check and not errors:
            check_errors, result["counts"] = check_output(name, out_dir)
            errors += check_errors
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += errors
        result["errors"] = errors
        self.invocations.append({k: v for k, v in result.items() if k != "layers"})
        return result

    def warm_up(self) -> None:
        for name in self.spec.scenarios:
            command = SCENARIOS[name][0]
            self.invoke(name, "untraced", write_config(name, "warmup", WARMUP_BUDGET[command]))

    def sample(self, mode: str, seconds: float, start: float) -> dict[str, list[dict]]:
        """Invoke the scenarios in turn while each is expected to end within
        ``seconds`` of ``start``, judged by its previous wall time.

        Every scenario runs at least once. Returns the checked results per scenario.
        """
        samples = {name: [] for name in self.spec.scenarios}
        for i in itertools.count():
            name = self.spec.scenarios[i % len(samples)]
            if samples[name]:
                ends = time.perf_counter() + samples[name][-1]["wall_s"]
                if ends - start > seconds or ends > self.deadline:
                    return samples
            samples[name].append(self.invoke(name, mode, check=True))

    def exact(self, samples: dict, value, what: str) -> int:
        """Sum over scenarios of a count that must repeat exactly between invocations."""
        total = 0
        for name, results in samples.items():
            values = [value(r) for r in results]
            if any(v != values[0] for v in values):
                self.errors.append(f"{name}: {what} differs between invocations: {values}")
            total += values[0]
        return total

    def counts(self, samples: dict) -> dict:
        keys = ("trials", "pulse_deliveries", "synapse_reads", "ties",
                "csv_rows", "csv_bytes", "golden_rows_identical")
        return {key: self.exact(samples, lambda r: r.get("counts", {}).get(key, 0), key)
                for key in keys}


def per_pass(samples: dict, value) -> float:
    """One pass over the workload's scenarios: the sum of each scenario's median."""
    return sum(median(value(r) for r in results) for results in samples.values())


def end_to_end(run: Run, seconds: float) -> dict:
    scenarios = run.spec.scenarios
    setups = [run.invoke(scenarios[i % len(scenarios)], "probe").get("setup_s")
              for i in range(SETUP_PROBES)]
    samples = run.sample("untraced", seconds, time.perf_counter())
    setups += [r.get("setup_s") for results in samples.values() for r in results]
    counts = run.counts(samples)
    sim_cpu_s = per_pass(samples, lambda r: r["cpu_s"] - r.get("setup_s", 0.0))
    return {
        "cpu_s": per_pass(samples, lambda r: r["cpu_s"]),
        "setup_s": median(s for s in setups if s is not None),
        "sim_events_per_cpu_s": (counts["pulse_deliveries"] + counts["synapse_reads"]) / sim_cpu_s,
        "peak_rss_mb": max(median(r["peak_rss_mb"] for r in results)
                           for results in samples.values()),
        # Informational, not in BENCHMARK.json: on a shared host the wall
        # time of the two-thread sweep moved with the steal by up to a
        # quarter between runs.
        "wall_s": per_pass(samples, lambda r: r["wall_s"]),
        "steal_s": per_pass(samples, lambda r: r["steal_s"]),
    }


def per_layer(run: Run, seconds: float) -> dict:
    import numpy as np

    start = time.perf_counter()
    untraced = run.sample("untraced", 0.0, start)
    traced = run.sample("traced", seconds, start)
    invocations = [r for results in traced.values() for r in results]

    def layer(field, name):
        return lambda r: r.get("layers", {}).get(name, {}).get(field, 0)

    metrics = {
        "cli.import_s": median(r["import_s"] for r in invocations if "import_s" in r),
        "cli.validate_s": median(r["validate_s"] for r in invocations if "validate_s" in r),
    }
    for name in TIMED_LAYERS:
        metrics[f"{name}.calls"] = run.exact(traced, layer("calls", name), f"{name} calls")
        metrics[f"{name}.self_s"] = per_pass(traced, layer("self_s", name))
        if name in LATENCY_LAYERS:
            durations = [r["layers"][name]["durations"] for r in invocations
                         if name in r.get("layers", {})]
            pooled = np.concatenate(durations) if durations else np.zeros(0)
            p50, p99 = np.percentile(pooled, [50, 99]) * 1e6 if pooled.size else (0.0, 0.0)
            metrics[f"{name}.p50_us"], metrics[f"{name}.p99_us"] = float(p50), float(p99)

    sweep_s = layer("total_s", "experiment.sweep")
    cells_s = layer("total_s", "experiment.estimate_accuracy")
    efficiency = [cells_s(r) / (sweep_s(r) * run.spec.threads) for r in invocations if sweep_s(r)]
    counts = run.counts(traced)
    metrics.update({
        "network.tie_ratio": counts["ties"] / counts["trials"] if counts["trials"] else 0.0,
        "experiment.sweep.parallel_efficiency": median(efficiency),
        "reports.rows": counts["csv_rows"],
        "reports.bytes": counts["csv_bytes"],
        **{f"work.{k}": counts[k] for k in WORK_COUNTS if k != "retention_draws"},
        "work.retention_draws": run.exact(
            traced, lambda r: r.get("retention_draws", 0), "retention draws"),
        "golden_rows_identical": counts["golden_rows_identical"],
        "tracing.overhead_s": per_pass(traced, lambda r: r["cpu_s"])
        - per_pass(untraced, lambda r: r["cpu_s"]),
    })
    missing = sorted({m for r in invocations for m in r.get("missing", [])})
    if missing:
        print(f"perfbench: not found, reported as 0: {', '.join(missing)}", file=sys.stderr)
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    (WORK / "child.log").write_bytes(b"")
    run = Run(workload, seed)
    run.warm_up()
    values = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    units = PER_LAYER if trace else END_TO_END
    env = environment()
    # A count that differs between invocations fails the run, not one invocation.
    failed = run.failed + (1 if run.errors and not run.failed else 0)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    record.write_text(json.dumps(
        {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
         "environment": env, "result": result, "informational": {
             k: values[k] for k in ("wall_s", "steal_s") if k in values},
         "errors": run.errors,
         "invocations": run.invocations}, indent=1, default=str))

    print(f"# environment: {json.dumps(env)}")
    for error in run.errors:
        print(f"# check failed: {error}")
    print(f"{workload} ops_failed_ratio = {failed / run.attempted:.6g} ratio "
          f"({failed} of {run.attempted} invocations)")
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for name in ("wall_s", "steal_s"):
        if name in values:
            print(f"# {workload} {name} = {values[name]:.6g} s (informational)")
    print(f"# record: {record.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="memdecide CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "memdecide" / "cli.py").is_file():
        print(f"perfbench: no memdecide sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v
                        for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
