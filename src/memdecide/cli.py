"""Command-line front end.

::

    memdecide trace     --config cfg.cfg [--seed N] [--out DIR] [--svg] [--threads N]
    memdecide trial     --config cfg.cfg ...
    memdecide sweep     --config cfg.cfg ...
    memdecide calibrate --config cfg.cfg ...

Configuration files are JSON. The top level holds the seed, output options,
an optional device/deck section, and exactly the section named after the
subcommand being run; ``comment`` keys are allowed anywhere and ignored.
Unknown keys and non-finite numbers (``NaN``, ``Infinity``) are errors; the
whole file is validated before any simulation starts. Command-line flags
override their config counterparts, and the effective configuration and the
random-number layout version are echoed into every CSV as leading comment
lines. ``python -m memdecide.cli`` runs the same commands as ``memdecide``.

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

_NUMBER = (int, float)


def _check_keys(section: dict, name: str, allowed: dict, required: tuple = ()):
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be an object")
    unknown = set(section) - set(allowed) - {"comment"}
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in section:
            raise ConfigError(f"{name}: missing required key {key!r}")
    for key, types in allowed.items():
        if key in section and types is not None:
            value = section[key]
            if isinstance(value, bool) and bool not in (
                types if isinstance(types, tuple) else (types,)
            ):
                raise ConfigError(f"{name}.{key}: unexpected boolean")
            if not isinstance(value, types):
                raise ConfigError(f"{name}.{key}: expected {types}, got {type(value).__name__}")


def _positive_number(section: dict, name: str, key: str) -> float:
    value = section[key]
    if not isinstance(value, _NUMBER) or isinstance(value, bool) or value <= 0:
        raise ConfigError(f"{name}.{key} must be a positive number")
    return float(value)


def _finite_number(token: str) -> float:
    """JSON number hook: ``NaN``, ``Infinity`` and overflowing literals are config errors."""
    value = float(token)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {token} is not allowed")
    return value


def _check_p_on(value, where: str) -> float:
    if not isinstance(value, _NUMBER) or isinstance(value, bool) or not 0.0 < value < 1.0:
        raise ConfigError(f"{where} must lie strictly between 0 and 1, got {value!r}")
    return float(value)


_TOP_KEYS = {
    "seed": int,
    "out_dir": str,
    "svg": bool,
    "threads": int,
    "deck": str,
    "device": dict,
    "trace": dict,
    "trial": dict,
    "sweep": dict,
    "calibrate": dict,
}

_DEVICE_KEYS = {
    "v_median_V": _NUMBER,
    "v_spread_V": _NUMBER,
    "retention_table": list,
    "i_off_uA": _NUMBER,
}

_TRACE_KEYS = {
    "n_devices": int,
    "p_on": (int, float, list),
    "i_cc_uA": (int, float, list),
    "retention_median_s": (int, float, list),
    "sigma_log": _NUMBER,
    "pulses": dict,
    "sample_rate_hz": _NUMBER,
    "repeats": int,
    "tail_s": _NUMBER,
}

_TRIAL_KEYS = {
    "n_devices": int,
    "i_cc_uA": _NUMBER,
    "p_on": _NUMBER,
    "duration_s": _NUMBER,
    "n_a": int,
    "n_b": int,
    "retention_median_s": _NUMBER,
    "sigma_log": _NUMBER,
}

_SWEEP_KEYS = {
    "durations_s": list,
    "ratios": list,
    "device_counts": list,
    "i_cc_values_uA": list,
    "p_on_values": list,
    "trials": int,
    "retention_median_s": _NUMBER,
    "sigma_log": _NUMBER,
}

_CALIBRATE_KEYS = {
    "switching_csv": str,
    "retention_csv": str,
    "provenance": str,
}

_PULSES_KEYS = {
    "n_pulses": int,
    "rate_hz": _NUMBER,
    "start_s": _NUMBER,
    "replay_csv": str,
    "random": dict,
}


class RunConfig:
    """Validated effective configuration for one subcommand invocation."""

    def __init__(self, command: str, raw: dict, config_dir: Path, args):
        _check_keys(raw, "config", _TOP_KEYS)
        for cmd in ("trace", "trial", "sweep", "calibrate"):
            if cmd != command and cmd in raw:
                raise ConfigError(f"config: section {cmd!r} does not match command {command!r}")
        if command not in raw:
            raise ConfigError(f"config: missing section {command!r}")

        self.command = command
        self.config_dir = config_dir
        self.section = raw[command]

        seed = args.seed if args.seed is not None else raw.get("seed")
        if seed is None:
            raise ConfigError("config: no seed given (set 'seed' or pass --seed)")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError("config: seed must be an integer")
        self.seed = int(seed)

        self.out_dir = Path(args.out if args.out is not None else raw.get("out_dir", "out"))
        self.svg = bool(args.svg or raw.get("svg", False))
        threads = args.threads if args.threads is not None else raw.get("threads", 1)
        if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
            raise ConfigError("config: threads must be a positive integer")
        self.threads = threads

        if "deck" in raw and "device" in raw:
            raise ConfigError("config: give either 'deck' or 'device', not both")
        self.i_off_uA = 0.0
        if "deck" in raw:
            deck_path = self._resolve(raw["deck"])
            if not deck_path.is_file():
                raise ConfigError(f"config: deck file not found: {deck_path}")
            try:
                self.deck = read_deck(deck_path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"config: invalid deck {deck_path}: {exc!r}") from exc
        elif "device" in raw:
            self.deck = self._parse_device(raw["device"])
        else:
            self.deck = default_deck()

        # Echoed into output headers; flags already folded in.
        effective = dict(raw)
        effective.pop("comment", None)
        effective.update(seed=self.seed, out_dir=str(self.out_dir), svg=self.svg, threads=self.threads)
        self.effective = effective

    def _resolve(self, path_str: str) -> Path:
        path = Path(path_str)
        return path if path.is_absolute() else self.config_dir / path

    def _parse_device(self, section: dict) -> ParamDeck:
        _check_keys(section, "device", _DEVICE_KEYS, required=("v_median_V", "v_spread_V"))
        self.i_off_uA = float(section.get("i_off_uA", 0.0))
        table = []
        rows = section.get("retention_table")
        if rows is not None:
            for row in rows:
                if not (isinstance(row, list) and len(row) == 3):
                    raise ConfigError("device.retention_table rows must be [i_cc_uA, median_s, sigma_log]")
                table.append((float(row[0]), RetentionDistribution(float(row[1]), float(row[2]))))
        else:
            table = default_deck().retention_table
        try:
            return ParamDeck(
                switching=SwitchingCurve(
                    v_median=float(section["v_median_V"]),
                    v_spread=float(section["v_spread_V"]),
                ),
                retention_table=table,
                provenance="inline device section",
            )
        except ValueError as exc:
            raise ConfigError(f"device: {exc}") from exc

    def header_comments(self) -> list[str]:
        canonical = json.dumps(self.effective, sort_keys=True, separators=(",", ":"))
        return [f"command={self.command}", f"config={canonical}", f"rng_layout={RNG_LAYOUT}"]

    def params_at(self, i_cc_uA: float, retention: RetentionDistribution | None = None) -> DeviceParams:
        return device_params(self.deck, i_cc_uA, i_off_uA=self.i_off_uA, retention=retention)


def _retention_override(section: dict, name: str) -> RetentionDistribution | None:
    if "retention_median_s" not in section:
        if "sigma_log" in section:
            raise ConfigError(f"{name}: sigma_log requires retention_median_s")
        return None
    median = _positive_number(section, name, "retention_median_s")
    sigma = float(section.get("sigma_log", 0.5))
    try:
        return RetentionDistribution(median_s=median, sigma_log=sigma)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


# --- trace -------------------------------------------------------------------


def _trace_stream(cfg: RunConfig, section: dict):
    pulses = section.get("pulses")
    if pulses is None:
        raise ConfigError("trace: missing 'pulses'")
    _check_keys(pulses, "trace.pulses", _PULSES_KEYS)
    if "replay_csv" in pulses:
        path = cfg._resolve(pulses["replay_csv"])
        if not path.is_file():
            raise ConfigError(f"trace.pulses.replay_csv not found: {path}")
        return read_stream_csv(path)
    if "random" in pulses:
        spec = pulses["random"]
        _check_keys(spec, "trace.pulses.random", {"n_pulses": int, "duration_s": _NUMBER},
                    required=("n_pulses", "duration_s"))
        stream_spec = StreamSpec(int(spec["n_pulses"]), float(spec["duration_s"]))
        return generate_random(stream_spec, spawn_rng(cfg.seed, "trace-stream"))
    for key in ("n_pulses", "rate_hz"):
        if key not in pulses:
            raise ConfigError(f"trace.pulses: missing {key!r} (or use 'replay_csv'/'random')")
    return generate_periodic(
        int(pulses["n_pulses"]), float(pulses["rate_hz"]), float(pulses.get("start_s", 0.0))
    )


def _trace_series(cfg: RunConfig, section: dict) -> list[tuple]:
    """Expand the one list-valued knob (if any) into validated, labeled series.

    Returns ``(label, p_on, i_cc_uA, params)`` per series, all built before
    any is simulated.
    """
    listy = [k for k in ("p_on", "i_cc_uA", "retention_median_s") if isinstance(section.get(k), list)]
    if len(listy) > 1:
        raise ConfigError(f"trace: only one of p_on/i_cc_uA/retention_median_s may be a list, got {listy}")
    if section.get("p_on") is None or section.get("i_cc_uA") is None:
        raise ConfigError("trace: p_on and i_cc_uA are required")
    key = listy[0] if listy else "p_on"
    series = []
    for value in section[key] if listy else [section[key]]:
        knobs = {**section, key: value}
        label = f"{key}={value}"
        p_on = _check_p_on(knobs["p_on"], "trace.p_on")
        try:
            i_cc = float(knobs["i_cc_uA"])
            retention = None
            if knobs.get("retention_median_s") is not None:
                retention = RetentionDistribution(
                    float(knobs["retention_median_s"]), float(section.get("sigma_log", 0.5))
                )
            series.append((label, p_on, i_cc, cfg.params_at(i_cc, retention)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"trace series {label}: {exc}") from exc
    return series


def cmd_trace(cfg: RunConfig) -> int:
    section = cfg.section
    _check_keys(section, "trace", _TRACE_KEYS, required=("n_devices", "sample_rate_hz", "repeats"))
    n_devices = int(section["n_devices"])
    sample_rate = _positive_number(section, "trace", "sample_rate_hz")
    repeats = int(section["repeats"])
    tail_s = float(section.get("tail_s", 0.0))
    if n_devices < 1:
        raise ConfigError("trace.n_devices must be >= 1")
    if repeats < 1:
        raise ConfigError("trace.repeats must be >= 1")
    if tail_s < 0.0:
        raise ConfigError("trace.tail_s must be >= 0")
    stream = _trace_stream(cfg, section)
    series = _trace_series(cfg, section)

    rows = []
    chart_series = []
    for label, p_on, i_cc, params in series:
        trace = run_trace_experiment(
            n_devices, stream, p_on, params, sample_rate, repeats,
            master_seed=derive_seed(cfg.seed, "trace", label),
            tail_s=tail_s,
        )
        rows.extend(trace_rows(label, p_on, i_cc, trace, repeats))
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


def _trial_config(cfg: RunConfig, section: dict) -> TwoAfcConfig:
    _check_keys(section, "trial", _TRIAL_KEYS,
                required=("n_devices", "i_cc_uA", "p_on", "duration_s", "n_a", "n_b"))
    retention = _retention_override(section, "trial")
    params = cfg.params_at(float(section["i_cc_uA"]), retention)
    duration = _positive_number(section, "trial", "duration_s")
    try:
        return TwoAfcConfig(
            n_devices=int(section["n_devices"]),
            params=params,
            v_pulse=params.switching.quantile(_check_p_on(section["p_on"], "trial.p_on")),
            spec_a=StreamSpec(int(section["n_a"]), duration),
            spec_b=StreamSpec(int(section["n_b"]), duration),
        )
    except ValueError as exc:
        raise ConfigError(f"trial: {exc}") from exc


def cmd_trial(cfg: RunConfig) -> int:
    trial_cfg = _trial_config(cfg, cfg.section)
    result = run_trial(trial_cfg, spawn_rng(cfg.seed, "trial", 0))
    row = trial_row(0, result)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = cfg.out_dir / "trial.csv"
    write_csv(out_csv, TRIAL_HEADER, [row], cfg.header_comments())
    print(",".join(TRIAL_HEADER))
    print(",".join(format_value(v) for v in row))
    print(f"wrote {out_csv}", file=sys.stderr)
    return 0


# --- sweep -------------------------------------------------------------------


def _sweep_grid(cfg: RunConfig, section: dict) -> SweepGrid:
    _check_keys(
        section, "sweep", _SWEEP_KEYS,
        required=("durations_s", "ratios", "device_counts", "i_cc_values_uA", "p_on_values"),
    )
    ratios = []
    for ratio in section["ratios"]:
        if not (isinstance(ratio, list) and len(ratio) == 2):
            raise ConfigError("sweep.ratios rows must be [n_a, n_b]")
        ratios.append((int(ratio[0]), int(ratio[1])))
    try:
        return SweepGrid(
            durations_s=[float(d) for d in section["durations_s"]],
            ratios=ratios,
            device_counts=[int(n) for n in section["device_counts"]],
            i_cc_values_uA=[float(i) for i in section["i_cc_values_uA"]],
            p_on_values=[_check_p_on(p, "sweep.p_on_values") for p in section["p_on_values"]],
            trials_per_point=int(section.get("trials", 1000)),
            master_seed=cfg.seed,
        )
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc


def cmd_sweep(cfg: RunConfig) -> int:
    section = cfg.section
    grid = _sweep_grid(cfg, section)
    retention = _retention_override(section, "sweep")
    try:
        sweep_cells(grid, deck=cfg.deck, retention=retention, i_off_uA=cfg.i_off_uA)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    points = sweep(grid, deck=cfg.deck, retention=retention,
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
    section = cfg.section
    _check_keys(section, "calibrate", _CALIBRATE_KEYS)
    if "switching_csv" not in section and "retention_csv" not in section:
        raise ConfigError("calibrate: need switching_csv and/or retention_csv")

    defaults = default_deck()
    diag_rows = []
    provenance_bits = []

    switching = defaults.switching
    if "switching_csv" in section:
        path = cfg._resolve(section["switching_csv"])
        if not path.is_file():
            raise ConfigError(f"calibrate.switching_csv not found: {path}")
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
    if "retention_csv" in section:
        path = cfg._resolve(section["retention_csv"])
        if not path.is_file():
            raise ConfigError(f"calibrate.retention_csv not found: {path}")
        records = read_retention_csv(path)
        table = fit_retention(records)
        provenance_bits.append(f"retention fit from {path.name} ({len(records)} records)")
        for i_cc, dist in table:
            diag_rows.append((f"retention_median_s@{i_cc:g}uA", float(dist.median_s), 0.0))
            diag_rows.append((f"retention_sigma_log@{i_cc:g}uA", float(dist.sigma_log), 0.0))
    else:
        provenance_bits.append("retention table: built-in default")

    provenance = section.get("provenance", "; ".join(provenance_bits))
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
