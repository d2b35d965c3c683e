"""Stimulus generators: random placement, periodic trains, replay files."""

import math
import re

import numpy as np
import pytest

from memdecide import (
    PulseStream,
    StreamSpec,
    generate_periodic,
    generate_random,
    read_stream_csv,
    write_stream_csv,
)


class TestGenerateRandom:
    def test_empty(self, rng):
        stream = generate_random(StreamSpec(0, 1.0), rng)
        assert stream.n_pulses == 0

    def test_count_window_and_order(self, rng):
        stream = generate_random(StreamSpec(40, 2.0), rng)
        assert stream.n_pulses == 40
        assert np.all(np.diff(stream.times) > 0.0)
        assert stream.times[0] >= 0.0 and stream.times[-1] < 2.0

    def test_mean_position(self, rng):
        # 1e3 streams of 1e4 uniform pulses on [0, 1): mean within 3 standard
        # errors of 0.5 (SE = 1/sqrt(12 * 1e7)).
        total = 0.0
        count = 0
        spec = StreamSpec(10_000, 1.0)
        for _ in range(1_000):
            times = generate_random(spec, rng).times
            total += times.sum()
            count += times.size
        se = 1.0 / math.sqrt(12.0 * count)
        assert abs(total / count - 0.5) < 3.0 * se

    def test_uniformity_kolmogorov_smirnov(self, rng):
        # One-sample KS against U(0,1); 1% critical value is 1.63/sqrt(n).
        n = 10_000
        times = generate_random(StreamSpec(n, 1.0), rng).times
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        d_stat = max(np.max(ecdf_hi - times), np.max(times - ecdf_lo))
        assert d_stat < 1.63 / math.sqrt(n)

    def test_seed_determinism(self):
        spec = StreamSpec(50, 3.0)
        a = generate_random(spec, np.random.default_rng(9)).times
        b = generate_random(spec, np.random.default_rng(9)).times
        assert np.array_equal(a, b)

    def test_exact_collisions_are_nudged(self):
        class StubRng:
            def random(self, size):
                return np.array([0.5, 0.1, 0.5]).reshape(size)

        stream = generate_random(StreamSpec(3, 1.0), StubRng())
        assert np.all(np.diff(stream.times) > 0.0)
        assert stream.times[2] == np.nextafter(0.5, np.inf)


class TestGeneratePeriodic:
    def test_fifty_at_ten_hertz(self):
        stream = generate_periodic(50, 10.0)
        assert stream.n_pulses == 50
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

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            StreamSpec(-1, 1.0)
        with pytest.raises(ValueError):
            StreamSpec(10, 0.0)


class TestReplayCsv:
    def test_round_trip(self, tmp_path, rng):
        stream = generate_random(StreamSpec(25, 2.5), rng)
        path = tmp_path / "stream.csv"
        write_stream_csv(stream, path)
        replayed = read_stream_csv(path)
        assert replayed.duration_s == stream.duration_s
        assert np.array_equal(replayed.times, stream.times)

    def test_duration_override(self, tmp_path, rng):
        stream = generate_random(StreamSpec(5, 1.0), rng)
        path = tmp_path / "stream.csv"
        write_stream_csv(stream, path)
        replayed = read_stream_csv(path, duration_s=4.0)
        assert replayed.duration_s == 4.0

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
