"""Command-line front end.

::

    memdecide trace     --config cfg.cfg [--seed N] [--out DIR] [--svg] [--threads N]
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
builds everything the command will run (streams, device parameters, trial
configurations, sweep cells, input paths) before any simulation starts.
Command-line flags override their config counterparts, and the effective
configuration and the random-number layout version are echoed into every
CSV as leading comment lines. ``python -m memdecide.cli`` runs the same
commands as ``memdecide``.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .calibration import (
    ParamDeck,
    default_deck,
    device_params,
    fit_retention,
    fit_switching_curve,
    read_deck,
    read_retention_csv,
    read_switching_csv,
    write_deck,
)
from .device import DeviceParams, RetentionDistribution, SwitchingCurve
from .errors import ConfigError
from .experiment import RNG_LAYOUT, SweepGrid, run_trace_experiment, sweep, sweep_cells
from .network import TwoAfcConfig, run_trial
from .reports import (
    REPORT_HEADER,
    TRACE_HEADER,
    TRIAL_HEADER,
    format_value,
    report_rows,
    trace_rows,
    trial_row,
    write_csv,
)
from .seeding import derive_seed, spawn_rng
from .stream import StreamSpec, generate_periodic, generate_random, read_stream_csv
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


_count = _checked(_int, lambda v: v >= 1, ">= 1")
_positive = _checked(_number, lambda v: v > 0.0, "> 0")
_non_negative = _checked(_number, lambda v: v >= 0.0, ">= 0")
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


_RETENTION = {"retention_median_s": _number, "sigma_log": _number}

_SCHEMA = _section({
    "seed": _int,
    "out_dir": _string,
    "svg": _bool,
    "threads": _count,
    "deck": _string,
    "device": _section({
        "v_median_V": _number,
        "v_spread_V": _number,
        "retention_table": _list_of(_row(_number, _number, _number)),
        "i_off_uA": _number,
    }, required=("v_median_V", "v_spread_V")),
    "trace": _section({
        "n_devices": _count,
        "p_on": _one_or_list(_probability),
        "i_cc_uA": _one_or_list(_number),
        "retention_median_s": _one_or_list(_number),
        "sigma_log": _number,
        "pulses": _section({
            "n_pulses": _int,
            "rate_hz": _number,
            "start_s": _number,
            "replay_csv": _string,
            "random": _section({"n_pulses": _int, "duration_s": _number},
                               required=("n_pulses", "duration_s")),
        }),
        "sample_rate_hz": _positive,
        "repeats": _count,
        "tail_s": _non_negative,
    }, required=("n_devices", "p_on", "i_cc_uA", "pulses", "sample_rate_hz", "repeats")),
    "trial": _section({
        "n_devices": _int,
        "i_cc_uA": _number,
        "p_on": _probability,
        "duration_s": _number,
        "n_a": _int,
        "n_b": _int,
        **_RETENTION,
    }, required=("n_devices", "i_cc_uA", "p_on", "duration_s", "n_a", "n_b")),
    "sweep": _section({
        "durations_s": _list_of(_number),
        "ratios": _list_of(_row(_int, _int)),
        "device_counts": _list_of(_int),
        "i_cc_values_uA": _list_of(_number),
        "p_on_values": _list_of(_probability),
        "trials": _int,
        **_RETENTION,
    }, required=("durations_s", "ratios", "device_counts", "i_cc_values_uA", "p_on_values")),
    "calibrate": _section({"switching_csv": _string, "retention_csv": _string, "provenance": _string}),
})

_TRACE_AXES = ("p_on", "i_cc_uA", "retention_median_s")


class RunConfig:
    """Validated plan for one subcommand invocation.

    Construction is the whole validation: every key goes through
    :data:`_SCHEMA`, then everything the command runs is built, so range
    checks come from the library constructors and any ``ValueError`` they
    raise becomes a :class:`ConfigError`. Nothing is simulated or written.
    """

    def __init__(self, command: str, raw: dict, config_dir: Path, args):
        conf = _SCHEMA(raw, "")
        flags = {"seed": args.seed, "out_dir": args.out, "threads": args.threads,
                 "svg": args.svg or None}
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
        self.section = section
        self.seed = conf["seed"]
        self.out_dir = Path(conf.get("out_dir", "out"))
        self.svg = conf.get("svg", False)
        self.threads = conf.get("threads", 1)

        # Echoed into output headers as written, with the flags folded in.
        self.effective = {k: v for k, v in raw.items() if k != "comment"}
        self.effective.update(seed=self.seed, out_dir=str(self.out_dir), svg=self.svg,
                              threads=self.threads)

        self.deck = default_deck()
        self.i_off_uA = 0.0
        if "deck" in conf:
            deck_path = self._input("deck", conf["deck"])
            try:
                self.deck = read_deck(deck_path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"config: invalid deck {deck_path}: {exc!r}") from exc
        try:
            if "device" in conf:
                self._build_device(conf["device"])
            getattr(self, f"_build_{command}")(section)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{command}: {exc}") from exc

    def _input(self, key: str, name: str) -> Path:
        """An input file, relative to the config's directory; it must exist."""
        path = Path(name)
        path = path if path.is_absolute() else self.config_dir / path
        if not path.is_file():
            raise ConfigError(f"{key}: file not found: {path}")
        return path

    def _retention(self, median_s: float | None) -> RetentionDistribution | None:
        if median_s is None:
            return None
        return RetentionDistribution(median_s, self.section.get("sigma_log", 0.5))

    def params_at(self, i_cc_uA: float, retention: RetentionDistribution | None = None) -> DeviceParams:
        return device_params(self.deck, i_cc_uA, i_off_uA=self.i_off_uA, retention=retention)

    def header_comments(self) -> list[str]:
        canonical = json.dumps(self.effective, sort_keys=True, separators=(",", ":"))
        return [f"command={self.command}", f"config={canonical}", f"rng_layout={RNG_LAYOUT}"]

    def _build_device(self, device: dict) -> None:
        self.i_off_uA = device.get("i_off_uA", 0.0)
        table = self.deck.retention_table
        if "retention_table" in device:
            table = [(i_cc, RetentionDistribution(median, sigma))
                     for i_cc, median, sigma in device["retention_table"]]
        self.deck = ParamDeck(
            switching=SwitchingCurve(device["v_median_V"], device["v_spread_V"]),
            retention_table=table,
            provenance="inline device section",
        )

    def _build_trace(self, section: dict) -> None:
        """The pulse stream, and ``(label, p_on, i_cc_uA, params)`` per series.

        At most one of ``_TRACE_AXES`` is a list; each of its values is one
        series, labelled with the value as written in the JSON (the label
        seeds the series).
        """
        pulses = section["pulses"]
        periodic = pulses.keys() & {"n_pulses", "rate_hz", "start_s"}
        if len(pulses.keys() & {"replay_csv", "random"}) + bool(periodic) != 1:
            raise ConfigError("trace.pulses: give exactly one pulse source: "
                              "n_pulses with rate_hz, 'random' or 'replay_csv'")
        if "replay_csv" in pulses:
            self.stream = read_stream_csv(self._input("trace.pulses.replay_csv", pulses["replay_csv"]))
        elif "random" in pulses:
            spec = StreamSpec(pulses["random"]["n_pulses"], pulses["random"]["duration_s"])
            self.stream = generate_random(spec, spawn_rng(self.seed, "trace-stream"))
        elif not {"n_pulses", "rate_hz"} <= periodic:
            raise ConfigError("trace.pulses: a periodic train needs n_pulses and rate_hz")
        else:
            self.stream = generate_periodic(pulses["n_pulses"], pulses["rate_hz"], pulses.get("start_s", 0.0))

        axes = [k for k in _TRACE_AXES if isinstance(section.get(k), list)]
        if len(axes) > 1:
            raise ConfigError(f"trace: only one of {'/'.join(_TRACE_AXES)} may be a list, got {axes}")
        key = axes[0] if axes else "p_on"
        written = self.effective["trace"][key]
        values, labels = (section[key], written) if axes else ([section[key]], [written])
        self.series = []
        for value, label in zip(values, labels):
            knobs = {**section, key: value}
            retention = self._retention(knobs.get("retention_median_s"))
            params = self.params_at(knobs["i_cc_uA"], retention)
            self.series.append((f"{key}={label}", knobs["p_on"], knobs["i_cc_uA"], params))

    def _build_trial(self, section: dict) -> None:
        self.trial = TwoAfcConfig(
            n_devices=section["n_devices"],
            params=self.params_at(section["i_cc_uA"], self._retention(section.get("retention_median_s"))),
            p_on=section["p_on"],
            spec_a=StreamSpec(section["n_a"], section["duration_s"]),
            spec_b=StreamSpec(section["n_b"], section["duration_s"]),
        )

    def _build_sweep(self, section: dict) -> None:
        self.grid = SweepGrid(
            durations_s=section["durations_s"],
            ratios=section["ratios"],
            device_counts=section["device_counts"],
            i_cc_values_uA=section["i_cc_values_uA"],
            p_on_values=section["p_on_values"],
            trials_per_point=section.get("trials", 1000),
            master_seed=self.seed,
        )
        self.retention = self._retention(section.get("retention_median_s"))
        # Every cell is built here, so a bad value in the last one exits 2 up front.
        sweep_cells(self.grid, deck=self.deck, retention=self.retention, i_off_uA=self.i_off_uA)

    def _build_calibrate(self, section: dict) -> None:
        self.inputs = {key: self._input(f"calibrate.{key}", section[key])
                       for key in ("switching_csv", "retention_csv") if key in section}
        if not self.inputs:
            raise ConfigError("calibrate: need switching_csv and/or retention_csv")


# --- trace -------------------------------------------------------------------


def cmd_trace(cfg: RunConfig) -> int:
    section = cfg.section
    rows = []
    chart_series = []
    for label, p_on, i_cc, params in cfg.series:
        trace = run_trace_experiment(
            section["n_devices"], cfg.stream, p_on, params, section["sample_rate_hz"],
            section["repeats"],
            master_seed=derive_seed(cfg.seed, "trace", label),
            tail_s=section.get("tail_s", 0.0),
        )
        rows.extend(trace_rows(label, p_on, i_cc, trace, section["repeats"]))
        chart_series.append((label, trace.times, trace.count_on))

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = cfg.out_dir / "trace.csv"
    write_csv(out_csv, TRACE_HEADER, rows, cfg.header_comments())
    print(f"wrote {out_csv}", file=sys.stderr)
    if cfg.svg:
        out_svg = cfg.out_dir / "trace.svg"
        line_chart(chart_series, "synapse integration", "time (s)", "mean devices ON", out_svg)
        print(f"wrote {out_svg}", file=sys.stderr)
    return 0


# --- trial -------------------------------------------------------------------


def cmd_trial(cfg: RunConfig) -> int:
    result = run_trial(cfg.trial, spawn_rng(cfg.seed, "trial", 0))
    row = trial_row(0, result)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = cfg.out_dir / "trial.csv"
    write_csv(out_csv, TRIAL_HEADER, [row], cfg.header_comments())
    print(",".join(TRIAL_HEADER))
    print(",".join(format_value(v) for v in row))
    print(f"wrote {out_csv}", file=sys.stderr)
    return 0


# --- sweep -------------------------------------------------------------------


def cmd_sweep(cfg: RunConfig) -> int:
    grid = cfg.grid
    points = sweep(grid, deck=cfg.deck, retention=cfg.retention,
                   i_off_uA=cfg.i_off_uA, max_workers=cfg.threads)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = cfg.out_dir / "report.csv"
    write_csv(out_csv, REPORT_HEADER, report_rows(points), cfg.header_comments())
    print(f"wrote {out_csv}", file=sys.stderr)

    if cfg.svg:
        axis, x_of = _chart_axis(grid)
        groups: dict[str, list] = {}
        for p in points:
            label_bits = []
            if axis != "duration_s" and len(grid.durations_s) > 1:
                label_bits.append(f"T={p.duration_s:g}s")
            if axis != "ratio" and len(grid.ratios) > 1:
                label_bits.append(f"{p.n_a}/{p.n_b}")
            if axis != "n_devices" and len(grid.device_counts) > 1:
                label_bits.append(f"N={p.n_devices}")
            if axis != "i_cc_uA" and len(grid.i_cc_values_uA) > 1:
                label_bits.append(f"Icc={p.i_cc_uA:g}")
            if axis != "p_on" and len(grid.p_on_values) > 1:
                label_bits.append(f"p={p.p_on:g}")
            groups.setdefault(", ".join(label_bits) or "accuracy", []).append((x_of(p), p.accuracy))
        series = [
            (label, [x for x, _ in pts], [y for _, y in pts])
            for label, pts in groups.items()
        ]
        out_svg = cfg.out_dir / "report.svg"
        line_chart(series, "decision accuracy", axis, "accuracy", out_svg)
        print(f"wrote {out_svg}", file=sys.stderr)
    return 0


def _chart_axis(grid: SweepGrid):
    if len(grid.durations_s) > 1:
        return "duration_s", lambda p: p.duration_s
    if len(grid.device_counts) > 1:
        return "n_devices", lambda p: p.n_devices
    if len(grid.i_cc_values_uA) > 1:
        return "i_cc_uA", lambda p: p.i_cc_uA
    if len(grid.p_on_values) > 1:
        return "p_on", lambda p: p.p_on
    return "n_a", lambda p: p.n_a


# --- calibrate ---------------------------------------------------------------


def cmd_calibrate(cfg: RunConfig) -> int:
    defaults = default_deck()
    diag_rows = []
    provenance_bits = []

    switching = defaults.switching
    if "switching_csv" in cfg.inputs:
        path = cfg.inputs["switching_csv"]
        records = read_switching_csv(path)
        switching, diag = fit_switching_curve(records)
        provenance_bits.append(f"switching fit from {path.name} ({diag.n_records} records)")
        diag_rows.append(("switching_v_median_V", float(switching.v_median), float(diag.se_v_median)))
        diag_rows.append(("switching_v_spread_V", float(switching.v_spread), float(diag.se_v_spread)))
        diag_rows.append(("switching_log_likelihood", float(diag.log_likelihood), 0.0))
        diag_rows.append(("switching_converged", 1.0 if diag.converged else 0.0, 0.0))
    else:
        provenance_bits.append("switching curve: built-in default")

    table = defaults.retention_table
    if "retention_csv" in cfg.inputs:
        path = cfg.inputs["retention_csv"]
        records = read_retention_csv(path)
        table = fit_retention(records)
        provenance_bits.append(f"retention fit from {path.name} ({len(records)} records)")
        for i_cc, dist in table:
            diag_rows.append((f"retention_median_s@{i_cc:g}uA", float(dist.median_s), 0.0))
            diag_rows.append((f"retention_sigma_log@{i_cc:g}uA", float(dist.sigma_log), 0.0))
    else:
        provenance_bits.append("retention table: built-in default")

    provenance = cfg.section.get("provenance", "; ".join(provenance_bits))
    deck = ParamDeck(switching=switching, retention_table=table, provenance=provenance)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    deck_path = cfg.out_dir / "deck.json"
    write_deck(deck, deck_path)
    diag_path = cfg.out_dir / "calibration.csv"
    write_csv(diag_path, ["quantity", "value", "stderr"], diag_rows, cfg.header_comments())
    print(f"wrote {deck_path}", file=sys.stderr)
    print(f"wrote {diag_path}", file=sys.stderr)
    return 0


# --- entry point -------------------------------------------------------------

_COMMANDS = {
    "trace": cmd_trace,
    "trial": cmd_trial,
    "sweep": cmd_sweep,
    "calibrate": cmd_calibrate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memdecide",
        description="Volatile resistive-switching synapse and decision-task simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("trace", "average synapse integration traces to CSV"),
        ("trial", "run a single decision trial"),
        ("sweep", "accuracy over a parameter grid"),
        ("calibrate", "fit device parameters from measured CSVs"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument("--svg", action="store_true", help="also write SVG charts")
        cmd.add_argument("--threads", type=int, default=None, help="cap sweep parallelism")
    return parser


def main(argv=None) -> int:
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
        cfg = RunConfig(args.command, raw, config_path.parent, args)
        return _COMMANDS[args.command](cfg)
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
