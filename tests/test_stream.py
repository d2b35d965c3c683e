"""Stimulus generators: random placement, periodic trains, replay files."""

import math
import re
import sys

import numpy as np
import pytest

from memdecide import (
    PulseStream,
    generate_periodic,
    read_stream_csv,
    write_stream_csv,
)
from memdecide.stream import check_duration, check_n_pulses, random_times


def _one_stream(n_pulses, duration_s, rng):
    """One random stream, as a trace's ``random`` source draws it: the row of ``m = 1``."""
    return PulseStream(random_times(n_pulses, duration_s, 1, rng)[0], duration_s)


class TestGenerateRandom:
    """One-row ``random_times``; the class keeps the name of the function it replaced."""

    def test_empty(self, rng):
        stream = _one_stream(0, 1.0, rng)
        assert stream.times.size == 0

    def test_count_window_and_order(self, rng):
        stream = _one_stream(40, 2.0, rng)
        assert stream.times.size == 40
        assert np.all(np.diff(stream.times) > 0.0)
        assert stream.times[0] >= 0.0 and stream.times[-1] < 2.0

    def test_mean_position(self, rng):
        # 1e3 streams of 1e4 uniform pulses on [0, 1): mean within 3 standard
        # errors of 0.5 (SE = 1/sqrt(12 * 1e7)).
        total = 0.0
        count = 0
        for _ in range(1_000):
            times = random_times(10_000, 1.0, 1, rng)[0]
            total += times.sum()
            count += times.size
        se = 1.0 / math.sqrt(12.0 * count)
        assert abs(total / count - 0.5) < 3.0 * se

    def test_uniformity_kolmogorov_smirnov(self, rng):
        # One-sample KS against U(0,1); 1% critical value is 1.63/sqrt(n).
        n = 10_000
        times = random_times(n, 1.0, 1, rng)[0]
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        d_stat = max(np.max(ecdf_hi - times), np.max(times - ecdf_lo))
        assert d_stat < 1.63 / math.sqrt(n)

    def test_seed_determinism(self):
        a = random_times(50, 3.0, 1, np.random.default_rng(9))
        b = random_times(50, 3.0, 1, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_rejects_negative_count_and_empty_window(self):
        # random_times leaves the stream rules to its callers; these are them.
        with pytest.raises(ValueError, match="n_pulses must be >= 0, got -1"):
            check_n_pulses(-1)
        with pytest.raises(ValueError, match="duration_s must be >="):
            check_duration(0.0)

    def test_exact_collisions_are_nudged(self):
        class StubRng:
            def random(self, size):
                return np.array([0.5, 0.1, 0.5]).reshape(size)

        stream = _one_stream(3, 1.0, StubRng())
        assert np.all(np.diff(stream.times) > 0.0)
        assert stream.times[2] == np.nextafter(0.5, np.inf)


class TestGeneratePeriodic:
    def test_fifty_at_ten_hertz(self):
        stream = generate_periodic(50, 10.0)
        assert stream.times.size == 50
        assert stream.times[0] == 0.0
        assert stream.times[-1] == pytest.approx(4.9, abs=1e-12)
        assert stream.duration_s == 5.0

    def test_single_pulse(self):
        stream = generate_periodic(1, 10.0)
        assert list(stream.times) == [0.0]

    def test_offset_train(self):
        stream = generate_periodic(3, 2.0, start_s=1.0)
        assert list(stream.times) == [1.0, 1.5, 2.0]

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            generate_periodic(10, 0.0)


class TestPulseStream:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PulseStream(times=np.array([0.2, 0.1]), duration_s=1.0)

    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError):
            PulseStream(times=np.array([0.5, 1.0]), duration_s=1.0)

    @pytest.mark.parametrize(
        "times,duration",
        [([0.1, math.nan], 1.0), ([math.nan], 1.0), ([0.1], math.inf), ([], math.nan)],
        ids=["time=nan", "only-time=nan", "duration=inf", "duration=nan"],
    )
    def test_rejects_non_finite(self, times, duration):
        with pytest.raises(ValueError, match="finite"):
            PulseStream(times=np.array(times), duration_s=duration)

    def test_window_is_at_least_the_smallest_normal_float(self, rng):
        # In a 5e-324 window every uniform lands on 0.0 and the one-ulp nudges
        # of duplicates carry the pulses past the window's end.
        with pytest.raises(ValueError, match=re.escape(str(sys.float_info.min))):
            check_duration(5e-324)
        with pytest.raises(ValueError, match="must lie in"):
            _one_stream(40, 5e-324, rng)
        times = _one_stream(40, sys.float_info.min, rng).times
        assert np.all(np.diff(times) > 0) and times[-1] < sys.float_info.min


class TestReplayCsv:
    def test_round_trip(self, tmp_path, rng):
        stream = _one_stream(25, 2.5, rng)
        path = tmp_path / "stream.csv"
        write_stream_csv(stream, path)
        replayed = read_stream_csv(path)
        assert replayed.duration_s == stream.duration_s
        assert np.array_equal(replayed.times, stream.times)

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "stream.csv"
        write_stream_csv(PulseStream(times=np.array([0.0, 0.1 + 0.2, 1.5]), duration_s=2.5), path)
        assert path.read_bytes() == b"# duration_s=2.5\nt_s\n0.0\n0.30000000000000004\n1.5\n"

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "stream.csv"
        write_stream_csv(generate_periodic(0, 4.0), path)
        assert path.read_bytes() == b"# duration_s=0.25\nt_s\n"
        replayed = read_stream_csv(path)
        assert replayed.times.size == 0 and replayed.duration_s == 0.25

    @pytest.mark.parametrize(
        "text,message",
        [("# duration_s=1.0\n0.1\n0.5\n", ": expected header 't_s'"),
         ("# duration_s=1.0\n", ": expected header 't_s'"),
         ("# duration_s=1.0\n0.1\nt_s\n", ": expected header 't_s'"),
         ("t_s\n0.1\n", ": no duration_s comment"),
         ("# duration_s=1.0\nt_s\n0.1,0.2\n", ":3: expected 1 fields")],
        ids=["no-header", "empty", "header-after-row", "no-duration", "two-fields"],
    )
    def test_needs_header_and_window(self, tmp_path, text, message):
        path = tmp_path / "stream.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}{message}")):
            read_stream_csv(path)

    @pytest.mark.parametrize(
        "text,where",
        [("# duration_s=1.0\nt_s\n0.1\n0.x\n", ":4:"),
         ("# duration_s=abc\nt_s\n0.1\n", ":1:"),
         ("t_s\n0.1\n-inf\n", ":3:"),
         ("# duration_s=1.0\nt_s\n0.5\n0.1\n", ": pulse times must be strictly increasing")],
        ids=["row=0.x", "duration_s=abc", "row=-inf", "unsorted"],
    )
    def test_bad_file_names_path(self, tmp_path, text, where):
        path = tmp_path / "stream.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}{where}")):
            read_stream_csv(path)


def _sorted_uniforms(n_pulses, duration_s, m, rng):
    """``random_times`` as a copying sort: ``np.sort(rng.random((m, n)) * d, axis=1)``, then the nudges."""
    times = np.sort(rng.random((m, n_pulses)) * duration_s, axis=1)
    for i in range(1, n_pulses):
        prev, cur = times[:, i - 1], times[:, i]
        dup = cur <= prev
        cur[dup] = np.nextafter(prev[dup], np.inf)
    return times


@pytest.mark.parametrize("n_pulses,duration_s,m", [(40, 2.0, 1024), (0, 2.0, 3), (1, 0.5, 5), (12, 1e-320, 64)],
                         ids=["chunk", "no-pulses", "one-pulse", "collisions"])
def test_in_place_draw_is_the_copying_sort(n_pulses, duration_s, m):
    # Bit for bit, and leaving the generator where the copying sort leaves it, call after call.
    rng, reference = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(3):
        times = random_times(n_pulses, duration_s, m, rng)
        expected = _sorted_uniforms(n_pulses, duration_s, m, reference)
        assert times.shape == (m, n_pulses)
        assert np.array_equal(times, expected)
        assert rng.bit_generator.state == reference.bit_generator.state
    if duration_s < 1e-300:
        # The subnormal window makes uniforms collide, so the nudges ran.
        raw = np.sort(np.random.default_rng(17).random((m, n_pulses)) * duration_s, axis=1)
        assert np.any(np.diff(raw, axis=1) <= 0.0)
