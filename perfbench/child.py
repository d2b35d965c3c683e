"""Run one ``memdecide`` CLI invocation for ``perfbench/run.py``.

    python3 perfbench/child.py --result SPANS.npz --src SRC --mode MODE \
        --run-id N -- trace --config CFG --seed S --out DIR --threads T

The child imports ``memdecide.cli`` from ``SRC`` (timing the import), wraps
the package's public functions in span recorders, calls ``memdecide.cli.main``
and writes the spans, the import time and the exit code to ``SPANS.npz``.

Modes:

* ``untraced`` wraps only the CLI entry, config validation and the two
  simulation entry points, a handful of calls per invocation, so that
  ``run.py`` can split set-up from simulation without slowing the simulation.
  The process CPU time at the first simulation call is saved as
  ``setup_cpu_s``.
* ``probe`` is ``untraced`` that stops at the first simulation call: it
  measures set-up alone.
* ``traced`` also wraps every layer function listed in ``LAYER_TARGETS``.

Spans are kept in memory, one buffer per thread, and written out at exit.
A span records its name, start, end and the span that called it (same
thread); every span of one invocation shares the run id.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import math
import sys
import threading
import time
from array import array
from pathlib import Path

# Set-up entry points, wrapped in every mode. The first span of a simulation
# entry marks the end of set-up.
CORE_TARGETS = {
    "cli.main": "memdecide.cli:main",
    "cli.validate": "memdecide.cli:RunConfig.__init__",
    "experiment.sweep": "memdecide.experiment:sweep",
    "experiment.run_trace_experiment": "memdecide.experiment:run_trace_experiment",
}
SIMULATION_ENTRIES = ("experiment.sweep", "experiment.run_trace_experiment")

# One wrapper per layer function; re-imported names in other modules
# (``memdecide.cli.sweep``, ``memdecide.network.generate_random``, ...) are
# rebound to the same wrapper.
LAYER_TARGETS = {
    "calibration.device_params": "memdecide.calibration:device_params",
    "seeding.spawn_rng": "memdecide.seeding:spawn_rng",
    "stream.generate_random": "memdecide.stream:generate_random",
    "device.retention_sample": "memdecide.device:RetentionDistribution.sample",
    "device.switching_probability": "memdecide.device:switching_probability",
    "synapse.stimulate": "memdecide.synapse:Synapse.stimulate",
    "synapse.read": "memdecide.synapse:Synapse.read",
    "synapse.trace": "memdecide.synapse:Synapse.trace",
    "network.run_trial": "memdecide.network:run_trial",
    "experiment.estimate_accuracy": "memdecide.experiment:estimate_accuracy",
    "reports.write_csv": "memdecide.reports:write_csv",
}


def _retention_draws(_dist, _rng, size=None) -> int:
    """Number of retention times one ``RetentionDistribution.sample`` call draws."""
    if size is None:
        return 1
    return math.prod(size) if isinstance(size, tuple) else int(size)


# Layers whose work is counted at the wrapper, beside their spans.
DRAW_COUNTERS = {"device.retention_sample": _retention_draws}


class StopAtSimulation(BaseException):
    """Raised by a probe at the first simulation call.

    A ``BaseException`` so that the CLI's ``except Exception`` boundary lets
    it through.
    """


class _ThreadBuffer:
    __slots__ = ("stack", "sid", "code", "parent", "start", "end", "draws")

    def __init__(self):
        self.stack = []
        self.sid = array("q")
        self.code = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.draws = 0


class Tracer:
    """In-memory span recorder; each thread appends only to its own buffer."""

    def __init__(self):
        self.names: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()

    def _new_buffer(self) -> _ThreadBuffer:
        buf = _ThreadBuffer()
        self._local.buf = buf
        with self._lock:
            self._buffers.append(buf)
        return buf

    def wrap(self, name: str, fn, draws=None):
        code = len(self.names)
        self.names.append(name)
        local, new_buffer, ids, clock = self._local, self._new_buffer, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            if draws is not None:
                buf.draws += draws(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.sid.append(sid)
                buf.code.append(code)
                buf.parent.append(parent)
                buf.start.append(t0)
                buf.end.append(t1)

        return traced

    def save(self, path: Path, **extra) -> None:
        import numpy as np

        def joined(field, dtype):
            return np.concatenate(
                [np.frombuffer(getattr(b, field), dtype=dtype) for b in self._buffers]
                or [np.empty(0, dtype=dtype)]
            )

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            sid=joined("sid", np.int64),
            code=joined("code", np.int32),
            parent=joined("parent", np.int64),
            start=joined("start", np.float64),
            end=joined("end", np.float64),
            retention_draws=sum(b.draws for b in self._buffers),
            **extra,
        )


def _resolve(spec: str):
    """``"pkg.mod:Class.attr"`` -> (owner, attribute name, original object)."""
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def _rebind(owner, attr: str, original, replacement) -> None:
    """Replace ``original`` on a class, or under every name any memdecide module binds it to."""
    if isinstance(owner, type):
        setattr(owner, attr, replacement)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "memdecide" or name.startswith("memdecide.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _stop_at_simulation(*_args, **_kwargs):
    raise StopAtSimulation


# Process CPU time (all threads, since the process started) at the first
# simulation call: the CPU cost of set-up.
SETUP_CPU_S: list[float] = []


def _mark_setup(fn):
    @functools.wraps(fn)
    def marked(*args, **kwargs):
        if not SETUP_CPU_S:
            SETUP_CPU_S.append(time.process_time())
        return fn(*args, **kwargs)

    return marked


def install(tracer: Tracer, targets: dict, probe: bool) -> list[str]:
    """Wrap every target that exists; return the names of those that do not."""
    missing = []
    for name, spec in targets.items():
        try:
            owner, attr, original = _resolve(spec)
        except (ImportError, AttributeError, KeyError):
            missing.append(name)
            continue
        fn = original
        if name in SIMULATION_ENTRIES:
            fn = _mark_setup(_stop_at_simulation if probe else original)
        _rebind(owner, attr, original, tracer.wrap(name, fn, DRAW_COUNTERS.get(name)))
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--mode", choices=("untraced", "probe", "traced"), required=True)
    parser.add_argument("--run-id", type=int, required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t0 = time.perf_counter()
    import memdecide.cli

    import_s = time.perf_counter() - t0
    src = args.src.resolve()
    if src not in Path(memdecide.cli.__file__).resolve().parents:
        print(f"child: memdecide was imported from {memdecide.cli.__file__}, not {src}",
              file=sys.stderr)
        return 3

    tracer = Tracer()
    targets = dict(CORE_TARGETS, **LAYER_TARGETS) if args.mode == "traced" else CORE_TARGETS
    missing = install(tracer, targets, probe=args.mode == "probe")
    try:
        exit_code = memdecide.cli.main(cli_args)
    except StopAtSimulation:
        exit_code = 0
    tracer.save(args.result, import_s=import_s, exit_code=exit_code, run_id=args.run_id,
                missing=",".join(missing), setup_cpu_s=SETUP_CPU_S[0] if SETUP_CPU_S else -1.0)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
