"""Command-line front end.

::

    memdecide trace     --config cfg.cfg [--seed N] [--out DIR] [--svg]
    memdecide trial     --config cfg.cfg ...
    memdecide sweep     --config cfg.cfg ...
    memdecide calibrate --config cfg.cfg ...

Configuration files are JSON. The top level holds the seed, output options,
an optional device/deck section, and exactly the section named after the
subcommand being run; ``comment`` keys are allowed anywhere and ignored.
:data:`_SCHEMA` lists every key with its type, and the typing is strict:

* integers must be JSON integers (``2.5``, ``2.0`` and ``true`` are not);
* numbers must be finite JSON numbers (not strings, booleans, ``NaN`` or
  ``Infinity``);
* lists must be non-empty, and unknown keys are errors;
* a trace has exactly one pulse source: ``n_pulses`` with ``rate_hz``
  (optionally ``start_s``), ``random``, or ``replay_csv``;
* ``sigma_log`` needs ``retention_median_s`` beside it.

:class:`RunConfig` is the one validation pass: it checks every key, then
the command's function builds everything it will run (streams, device
parameters, trial configurations, sweep cells, input paths) and returns the
run, before any simulation starts.
Command-line flags override their config counterparts; ``--threads N`` is
parsed and ignored (sweeps run on one thread). The effective configuration
and the random-number layout version are echoed into every CSV as leading
comment lines. ``trial`` writes trial 0 of ``run_trials(cfg, n, seed)``, for any ``n``.
``python -m memdecide.cli`` runs the same commands as ``memdecide``.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

from .calibration import (
    ParamDeck,
    default_deck,
    fit_retention,
    fit_switching_curve,
    read_deck,
    read_retention_csv,
    read_switching_csv,
    write_deck,
)
from .device import DeviceParams, RetentionDistribution, SwitchingCurve, check_i_cc, check_i_off
from .errors import ConfigError
from .experiment import (RNG_LAYOUT, AccuracyPoint, run_trace_experiment, run_trials, sample_count, sweep,
                         sweep_cells, trace_cells)
from .network import TwoAfcConfig, check_trial_devices
from .reports import format_rows, write_csv
from .seeding import derive_seed, spawn_rng
from .stream import (PulseStream, check_duration, check_n_pulses, generate_periodic, random_times,
                     read_stream_csv)
from .svgplot import line_chart

# --- schema ------------------------------------------------------------------
# A converter takes a JSON value and its dotted key path, and returns the
# value in the type the plan uses or raises ConfigError naming the path.


def _finite_number(token: str) -> float:
    """JSON number hook: ``NaN``, ``Infinity`` and overflowing literals are config errors."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {token} is not allowed")
    return value


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise ConfigError(f"{path} must be a finite number, got {value!r}")


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {value!r}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {value!r}")
    return value


def _checked(convert, ok, rule: str):
    """``convert``, then a range rule for keys that no constructor checks."""
    def convert_checked(value, path):
        value = convert(value, path)
        if not ok(value):
            raise ConfigError(f"{path} must be {rule}, got {value!r}")
        return value
    return convert_checked


@contextmanager
def _named(source: str):
    """Prefix ``<source>: `` to each ``ValueError`` (as a ConfigError) and warning raised inside."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
    for w in caught:
        try:
            warnings.warn(f"{source}: {w.message}", w.category)
        except Warning as exc:  # an error filter raised it
            raise ConfigError(str(exc)) from exc


def _ruled(convert, check):
    """``convert``, then a library rule or constructor, :func:`_named` after the key path."""
    def convert_ruled(value, path):
        value = convert(value, path)
        with _named(path):
            check(value)
        return value
    return convert_ruled


_count = _checked(_int, lambda v: v >= 1, ">= 1")
_probability = _checked(_number, lambda v: 0.0 < v < 1.0, "strictly between 0 and 1")


def _list_of(convert):
    def convert_list(value, path):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path} must be a non-empty list, got {value!r}")
        return [convert(item, f"{path}[{i}]") for i, item in enumerate(value)]
    return convert_list


def _row(*converts):
    """A fixed-length list, one converter per position, as a tuple."""
    def convert_row(value, path):
        if not isinstance(value, list) or len(value) != len(converts):
            raise ConfigError(f"{path} must be a list of {len(converts)} values, got {value!r}")
        return tuple(c(item, f"{path}[{i}]") for i, (c, item) in enumerate(zip(converts, value)))
    return convert_row


def _one_or_list(convert):
    as_list = _list_of(convert)
    return lambda value, path: (as_list if isinstance(value, list) else convert)(value, path)


def _section(fields: dict, required: tuple = ()):
    def convert_section(value, path):
        name = path or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object, got {value!r}")
        unknown = sorted(set(value) - set(fields) - {"comment"})
        if unknown:
            raise ConfigError(f"{name}: unknown keys {unknown}")
        for key in required:
            if key not in value:
                raise ConfigError(f"{name}: missing required key {key!r}")
        prefix = f"{path}." if path else ""
        return {k: fields[k](v, prefix + k) for k, v in value.items() if k != "comment"}
    return convert_section


_pulse_count = _ruled(_int, check_n_pulses)

_RETENTION = {"retention_median_s": _number, "sigma_log": _number}

_SCHEMA = _section({
    "seed": _int,
    "out_dir": _string,
    "svg": _bool,
    "deck": _string,
    "device": _section({
        "v_median_V": _number,
        "v_spread_V": _number,
        # (i_cc_uA, median_s, sigma_log); the deck checks the currents.
        "retention_table": _list_of(_ruled(_row(_number, _number, _number),
                                           lambda row: RetentionDistribution(*row[1:]))),
        "i_off_uA": _ruled(_number, check_i_off),
    }, required=("v_median_V", "v_spread_V")),
    "trace": _section({
        "n_devices": _ruled(_int, check_trial_devices),
        "p_on": _one_or_list(_probability),
        "i_cc_uA": _one_or_list(_ruled(_number, check_i_cc)),
        "retention_median_s": _one_or_list(_ruled(_number, RetentionDistribution)),
        "sigma_log": _number,
        "pulses": _section({
            "n_pulses": _pulse_count,
            "rate_hz": _number,
            "start_s": _number,
            "replay_csv": _string,
            "random": _section({"n_pulses": _pulse_count, "duration_s": _ruled(_number, check_duration)},
                               required=("n_pulses", "duration_s")),
        }),
        "sample_rate_hz": _number,
        "repeats": _count,
        "tail_s": _number,
    }, required=("n_devices", "p_on", "i_cc_uA", "pulses", "sample_rate_hz", "repeats")),
    "trial": _section({
        "n_devices": _int,
        "i_cc_uA": _number,
        "p_on": _probability,
        "duration_s": _number,
        "n_a": _pulse_count,
        "n_b": _pulse_count,
        **_RETENTION,
    }, required=("n_devices", "i_cc_uA", "p_on", "duration_s", "n_a", "n_b")),
    "sweep": _section({
        # Checked per entry, so an error names the entry, not only the section.
        "durations_s": _list_of(_ruled(_number, check_duration)),
        "ratios": _list_of(_row(_pulse_count, _pulse_count)),
        "device_counts": _list_of(_ruled(_int, check_trial_devices)),
        "i_cc_values_uA": _list_of(_ruled(_number, check_i_cc)),
        "p_on_values": _list_of(_probability),
        "trials": _count,
        **_RETENTION,
    }, required=("durations_s", "ratios", "device_counts", "i_cc_values_uA", "p_on_values")),
    "calibrate": _section({"switching_csv": _string, "retention_csv": _string, "provenance": _string}),
})

_TRACE_AXES = ("p_on", "i_cc_uA", "retention_median_s")


class RunConfig:
    """Validated plan for one subcommand invocation, and its ``run``.

    Construction is the whole validation: every key goes through
    :data:`_SCHEMA`, then the command's function in :data:`_COMMANDS` builds
    everything the command runs and returns it as ``run``, a zero-argument
    callable that simulates and writes the outputs. Range checks come from
    the library constructors and rules, among them a pulse count too large
    for a chunk's pulse-time matrix and a replay file's window: any
    ``ValueError`` they raise becomes a :class:`ConfigError`, and any warning
    names its key or section (see :func:`_named`). Nothing is simulated or
    written until ``run`` is called.
    """

    def __init__(self, command: str, raw: dict, config_dir: Path, args):
        conf = _SCHEMA(raw, "")
        flags = {"seed": args.seed, "out_dir": args.out, "svg": args.svg or None}
        conf.update(_SCHEMA({k: v for k, v in flags.items() if v is not None}, ""))
        for other in _COMMANDS:
            if other != command and other in conf:
                raise ConfigError(f"config: section {other!r} does not match command {command!r}")
        if command not in conf:
            raise ConfigError(f"config: missing section {command!r}")
        if "seed" not in conf:
            raise ConfigError("config: no seed given (set 'seed' or pass --seed)")
        if "deck" in conf and "device" in conf:
            raise ConfigError("config: give either 'deck' or 'device', not both")
        section = conf[command]
        if "sigma_log" in section and "retention_median_s" not in section:
            raise ConfigError(f"{command}.sigma_log requires retention_median_s")

        self.command = command
        self.config_dir = config_dir
        self.seed = conf["seed"]
        self.out_dir = Path(conf.get("out_dir", "out"))
        self.svg = conf.get("svg", False)

        # Echoed into output headers as written, with the flags folded in.
        self.effective = {k: v for k, v in raw.items() if k != "comment"}
        self.effective.update(seed=self.seed, out_dir=str(self.out_dir), svg=self.svg)

        self.deck = default_deck()
        self.i_off_uA = 0.0
        # Where each part of the deck comes from; calibrate names it for what it does not fit.
        self.sources = dict.fromkeys(("switching curve", "retention table"), "built-in default")
        if "deck" in conf:
            deck_path = self._input("deck", conf["deck"])
            with _named(f"config: deck {deck_path}"):
                try:
                    self.deck = read_deck(deck_path)
                except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
                    raise ConfigError(f"config: invalid deck {deck_path}: {exc!r}") from exc
            self.sources = dict.fromkeys(self.sources, self.deck.provenance)
        if "device" in conf:
            with _named("device"):
                self._build_device(conf["device"])
        with _named(command):
            self.run = _COMMANDS[command][1](self, section)

    def _input(self, key: str, name: str) -> Path:
        """An input file, relative to the config's directory; it must exist."""
        path = Path(name)
        path = path if path.is_absolute() else self.config_dir / path
        if not path.is_file():
            raise ConfigError(f"{key}: file not found: {path}")
        return path

    def _deck(self, knobs: dict) -> ParamDeck:
        """The deck, or with ``retention_median_s`` one retention law at every current.

        That law is a one-row table, which clamps to its row at any current.
        """
        if "retention_median_s" not in knobs:
            return self.deck
        retention = RetentionDistribution(knobs["retention_median_s"], knobs.get("sigma_log", 0.5))
        return ParamDeck(self.deck.switching, [(1.0, retention)])

    def _build_device(self, device: dict) -> None:
        self.i_off_uA = device.get("i_off_uA", 0.0)
        table = self.deck.retention_table
        self.sources["switching curve"] = "inline device section"
        if "retention_table" in device:
            self.sources["retention table"] = "inline device section"
            table = [(i_cc, RetentionDistribution(median, sigma))
                     for i_cc, median, sigma in device["retention_table"]]
        self.deck = ParamDeck(
            switching=SwitchingCurve(device["v_median_V"], device["v_spread_V"]),
            retention_table=table,
            provenance="inline device section",
        )

    def write(self, name: str, header, rows, *chart) -> None:
        """Write ``<name>.csv`` under comment lines that echo the command, the
        effective config and ``RNG_LAYOUT``, and with ``svg`` on ``<name>.svg``,
        a ``line_chart(*chart)``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{name}.csv"
        canonical = json.dumps(self.effective, sort_keys=True, separators=(",", ":"))
        write_csv(path, header, rows,
                  [f"command={self.command}", f"config={canonical}", f"rng_layout={RNG_LAYOUT}"])
        print(f"wrote {path}", file=sys.stderr)
        if self.svg and chart:
            path = path.with_suffix(".svg")
            line_chart(*chart, path)
            print(f"wrote {path}", file=sys.stderr)


# --- commands ----------------------------------------------------------------
# A command builds everything it runs from the plan and its validated section,
# and returns the run: a zero-argument callable that simulates and writes.


def _trace(cfg: RunConfig, section: dict):
    """The pulse stream, and ``(label, p_on, i_cc_uA, params)`` per series.

    At most one of ``_TRACE_AXES`` is a list; each of its values is one
    series, labelled with the value as written in the JSON (the label
    seeds the series). The sample grid and the cell pool are sized here but
    not made, so either too large is a config error (see
    :func:`memdecide.experiment.sample_count` and ``trace_cells``).
    """
    pulses = section["pulses"]
    periodic = pulses.keys() & {"n_pulses", "rate_hz", "start_s"}
    if len(pulses.keys() & {"replay_csv", "random"}) + bool(periodic) != 1:
        raise ConfigError("trace.pulses: give exactly one pulse source: "
                          "n_pulses with rate_hz, 'random' or 'replay_csv'")
    if "replay_csv" in pulses:
        stream = read_stream_csv(cfg._input("trace.pulses.replay_csv", pulses["replay_csv"]))
    elif "random" in pulses:
        n, window = pulses["random"]["n_pulses"], pulses["random"]["duration_s"]
        stream = PulseStream(random_times(n, window, 1, spawn_rng(cfg.seed, "trace-stream"))[0], window)
    elif not {"n_pulses", "rate_hz"} <= periodic:
        raise ConfigError("trace.pulses: a periodic train needs n_pulses and rate_hz")
    else:
        stream = generate_periodic(pulses["n_pulses"], pulses["rate_hz"], pulses.get("start_s", 0.0))
    n_devices, rate_hz, repeats = section["n_devices"], section["sample_rate_hz"], section["repeats"]
    tail_s = section.get("tail_s", 0.0)
    trace_cells(n_devices, repeats)
    sample_count(stream.duration_s, rate_hz, tail_s)

    axes = [k for k in _TRACE_AXES if isinstance(section.get(k), list)]
    if len(axes) > 1:
        raise ConfigError(f"trace: only one of {'/'.join(_TRACE_AXES)} may be a list, got {axes}")
    key = axes[0] if axes else "p_on"
    written = cfg.effective["trace"][key]
    values, labels = (section[key], written) if axes else ([section[key]], [written])
    series = []
    for value, label in zip(values, labels):
        knobs = {**section, key: value}
        i_cc = knobs["i_cc_uA"]
        params = DeviceParams(i_cc, cfg._deck(knobs).retention_at(i_cc), cfg.i_off_uA)
        series.append((f"{key}={label}", knobs["p_on"], i_cc, params))

    def run() -> None:
        rows = []
        chart_series = []
        for label, p_on, i_cc, params in series:
            trace = run_trace_experiment(n_devices, stream, p_on, params, rate_hz, repeats,
                                         master_seed=derive_seed(cfg.seed, "trace", label),
                                         tail_s=tail_s)
            rows.extend(format_rows(label, p_on, i_cc, *trace, repeats))
            chart_series.append((label, trace.times, trace.count_on))
        header = ["series", "p_on", "i_cc_uA", "t_s", "count_on", "current_uA", "repeat_mean"]
        cfg.write("trace", header, rows,
                  chart_series, "synapse integration", "time (s)", "mean devices ON")
    return run


def _trial(cfg: RunConfig, section: dict):
    i_cc = section["i_cc_uA"]
    trial = TwoAfcConfig(
        n_devices=section["n_devices"],
        params=DeviceParams(i_cc, cfg._deck(section).retention_at(i_cc), cfg.i_off_uA),
        p_on=section["p_on"],
        n_a=section["n_a"], n_b=section["n_b"], duration_s=section["duration_s"],
    )

    def run() -> None:
        batch = run_trials(trial, 1, cfg.seed)
        counts = batch.count1[0], batch.count2[0]
        currents = (trial.params.current_uA(count, trial.n_devices) for count in counts)
        (row,) = format_rows(0, "A" if batch.choose_a[0] else "B", batch.correct[0],
                             *currents, *counts, batch.tie[0])
        header = ["trial", "decision", "correct", "i1_uA", "i2_uA", "count1", "count2", "tie"]
        cfg.write("trial", header, [row])
        print(",".join(header))
        print(row)
    return run


# One row per sweep axis, in grid order: the AccuracyPoint field a chart
# plots it as, the config key of its values, and its series label.
_SWEEP_AXES = (
    ("duration_s", "durations_s", lambda p: f"T={p.duration_s:g}s"),
    ("n_a", "ratios", lambda p: f"{p.n_a}/{p.n_b}"),
    ("n_devices", "device_counts", lambda p: f"N={p.n_devices}"),
    ("i_cc_uA", "i_cc_values_uA", lambda p: f"Icc={p.i_cc_uA:g}"),
    ("p_on", "p_on_values", lambda p: f"p={p.p_on:g}"),
)


def _sweep(cfg: RunConfig, section: dict):
    # Every cell is built here, so a bad value in the last one exits 2 up front.
    values = {key: section[key] for _, key, _ in _SWEEP_AXES}
    cells = sweep_cells(**values, master_seed=cfg.seed, i_off_uA=cfg.i_off_uA,
                        deck=cfg._deck(section))
    trials = section.get("trials", 1000)
    # The x axis is the first varying axis other than the ratio, else the
    # ratio at n_a; every other varying axis labels the series.
    varying = [axis for axis in _SWEEP_AXES if len(values[axis[1]]) > 1]
    x_field = next((field for field, _, _ in varying if field != "n_a"), "n_a")

    def run() -> None:
        points = sweep(cells, trials)
        groups: dict[str, tuple[list, list]] = {}
        for p in points:
            label = ", ".join(label_of(p) for field, _, label_of in varying if field != x_field)
            xs, ys = groups.setdefault(label or "accuracy", ([], []))
            xs.append(getattr(p, x_field))
            ys.append(p.accuracy)
        series = [(label, xs, ys) for label, (xs, ys) in groups.items()]
        cfg.write("report", AccuracyPoint._fields, format_rows(*zip(*points)),
                  series, "decision accuracy", x_field, "accuracy")
    return run


def _calibrate(cfg: RunConfig, section: dict):
    """Fit what the inputs give; the rest comes from the configured deck."""
    inputs = {key: cfg._input(f"calibrate.{key}", section[key])
              for key in ("switching_csv", "retention_csv") if key in section}
    if not inputs:
        raise ConfigError("calibrate: need switching_csv and/or retention_csv")

    def run() -> None:
        diag_rows = []
        provenance_bits = []

        switching = cfg.deck.switching
        if "switching_csv" in inputs:
            path = inputs["switching_csv"]
            records = read_switching_csv(path)
            switching, diag = fit_switching_curve(records)
            provenance_bits.append(f"switching fit from {path.name} ({diag.n_records} records)")
            diag_rows.append(("switching_v_median_V", float(switching.v_median), float(diag.se_v_median)))
            diag_rows.append(("switching_v_spread_V", float(switching.v_spread), float(diag.se_v_spread)))
            # Neither has a standard error.
            diag_rows.append(("switching_log_likelihood", float(diag.log_likelihood), math.nan))
            diag_rows.append(("switching_converged", 1.0 if diag.converged else 0.0, math.nan))
        else:
            provenance_bits.append(f"switching curve: {cfg.sources['switching curve']}")

        table = cfg.deck.retention_table
        if "retention_csv" in inputs:
            path = inputs["retention_csv"]
            records = read_retention_csv(path)
            table, stderrs = fit_retention(records)
            provenance_bits.append(f"retention fit from {path.name} ({len(records)} records)")
            for (i_cc, dist), (se_median, se_sigma) in zip(table, stderrs):
                diag_rows.append((f"retention_median_s@{i_cc:g}uA", float(dist.median_s), se_median))
                diag_rows.append((f"retention_sigma_log@{i_cc:g}uA", float(dist.sigma_log), se_sigma))
        else:
            provenance_bits.append(f"retention table: {cfg.sources['retention table']}")

        provenance = section.get("provenance", "; ".join(provenance_bits))
        deck = ParamDeck(switching=switching, retention_table=table, provenance=provenance)
        cfg.write("calibration", ["quantity", "value", "stderr"], format_rows(*zip(*diag_rows)))
        deck_path = cfg.out_dir / "deck.json"
        write_deck(deck, deck_path)
        print(f"wrote {deck_path}", file=sys.stderr)
    return run


# --- entry point -------------------------------------------------------------

# Each subcommand: its help line, and the function that builds its run.
_COMMANDS = {
    "trace": ("average synapse integration traces to CSV", _trace),
    "trial": ("run a single decision trial", _trial),
    "sweep": ("accuracy over a parameter grid", _sweep),
    "calibrate": ("fit device parameters from measured CSVs", _calibrate),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memdecide",
        description="Volatile resistive-switching synapse and decision-task simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument("--svg", action="store_true", help="also write SVG charts")
        cmd.add_argument("--threads", type=int, default=None, help="ignored: sweeps run on one thread")
    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code (0, 1 runtime failure, 2 config error).

    Right before the run starts, ``gc.freeze()`` moves every object the
    cyclic collector tracks into its permanent generation, for good. So
    ``main`` is meant to be the last thing its process does, as under
    ``console_main``: then those objects (numpy, the stdlib, memdecide and
    the built run) are alive until exit anyway, and the collections at
    interpreter exit no longer walk them. Objects made during and after the
    run are still collected. A collection of the young generations first
    frees set-up's garbage cycles; garbage already in the oldest generation
    is frozen with the rest and never freed. A caller that goes on after
    ``main`` (a test, an in-process benchmark) keeps everything it held
    then frozen until it calls ``gc.unfreeze()``. Importing the package
    freezes nothing.
    """
    args = build_parser().parse_args(argv)
    try:
        config_path = Path(args.config)
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            raw = json.loads(
                config_path.read_text(), parse_float=_finite_number, parse_constant=_finite_number
            )
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{config_path}: invalid JSON ({exc})") from exc
        run = RunConfig(args.command, raw, config_path.parent, args).run
        gc.collect(1)
        gc.freeze()
        run()
        return 0
    except ConfigError as exc:
        print(f"memdecide: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"memdecide: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
