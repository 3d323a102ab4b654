import json

import numpy as np
import pytest

from evofuse.bench import BenchProtocol, CostReport, profile_arch, run_benchmark, time_method
from evofuse.errors import EmptyInputError, RangeError, UnknownAlgorithmError
from evofuse.net.arch import BUILTIN_NAMES, POOLED_NAMES


class FakeClock:
    """Scripted clock: each call returns the next value in ticks."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestProtocol:
    def test_trials_floor(self):
        with pytest.raises(RangeError):
            BenchProtocol(trials=1)

    def test_skip_must_leave_runs(self):
        with pytest.raises(RangeError):
            BenchProtocol(trials=3, warmup_skip=3)


class TestTimeMethod:
    def test_fake_clock_skips_first_and_averages_rest(self):
        protocol = BenchProtocol(image_size=16, trials=4, warmup_skip=1)
        report = time_method("avg", protocol, clock=FakeClock(step=1.0))
        # 4 clock reads per trial; core section spans exactly one step
        assert report.timed_runs == 3
        assert report.latency_ms_mean == 1000.0
        assert report.latency_ms_std == 0.0

    def test_two_trials_skip_one_means_single_run(self):
        protocol = BenchProtocol(image_size=16, trials=2, warmup_skip=1)
        report = time_method("avg", protocol, clock=FakeClock(step=2.0))
        assert report.timed_runs == 1
        assert report.latency_ms_mean == 2000.0

    def test_variable_clock_statistics(self):
        times = iter([float(v) for v in (0, 0, 1, 1, 1, 1, 4, 4, 4, 4, 9, 9)])
        protocol = BenchProtocol(image_size=16, trials=3, warmup_skip=1)
        report = time_method("avg", protocol, clock=lambda: next(times))
        # core durations per trial: 1, 3, 5 seconds; first dropped
        assert report.timed_runs == 2
        assert report.latency_ms_mean == 4000.0

    def test_unknown_method(self):
        with pytest.raises(UnknownAlgorithmError):
            time_method("warpdrive", BenchProtocol(image_size=16, trials=2))

    def test_real_clock_classical(self):
        report = time_method("avg", BenchProtocol(image_size=32, trials=3))
        assert report.latency_ms_mean >= 0.0
        assert np.isfinite(report.end_to_end_ms_mean)

    def test_avg_faster_than_pyramid(self):
        protocol = BenchProtocol(image_size=400, trials=3, warmup_skip=1)
        fast = time_method("avg", protocol)
        slow = time_method("lp", protocol)
        assert fast.latency_ms_mean < slow.latency_ms_mean


class TestProfile:
    def test_gcb_report(self):
        report = profile_arch("gcb", 400, 400)
        assert 1000 < report.params < 11_000
        assert report.flops > 0
        assert report.bytes > 0
        assert report.assumptions["groups"] == 8
        assert report.assumptions["in_channels"] == 2
        assert report.assumptions["flop_convention"] == "1 MAC = 2 FLOPs"

    def test_separable_fewer_params_than_regular(self):
        assert profile_arch("separable", 64, 64).params < profile_arch("regular", 64, 64).params

    def test_gcb_smallest_bytes_nonpooled(self):
        sizes = {
            name: profile_arch(name, 64, 64).bytes
            for name in BUILTIN_NAMES
            if name not in POOLED_NAMES
        }
        assert min(sizes, key=sizes.get) == "gcb"

    def test_flops_scale_with_pixels(self):
        assert profile_arch("gcb", 128, 128).flops == 4 * profile_arch("gcb", 64, 64).flops


@pytest.fixture(scope="module")
def report_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    protocol = BenchProtocol(image_size=32, trials=2, warmup_skip=1, seed=5)
    return run_benchmark(["lp", "avg"], protocol, out)


class TestRunBenchmark:

    def test_csv_shape(self, report_paths):
        csv_path, _ = report_paths
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "method,combined,latency_ms,params,bytes,flops"
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["avg", "lp"]  # sorted

    def test_json_mirrors_csv(self, report_paths):
        csv_path, json_path = report_paths
        rows = json.loads(json_path.read_text())["rows"]
        csv_rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        for row, csv_row in zip(rows, csv_rows):
            assert row["method"] == csv_row[0]
            assert f"{row['combined']:.6f}" == csv_row[1]
            assert row["params"] == int(csv_row[3])
            assert row["bytes"] == int(csv_row[4])
            assert row["flops"] == int(csv_row[5])

    def test_non_latency_columns_deterministic(self, tmp_path):
        protocol = BenchProtocol(image_size=32, trials=2, warmup_skip=1, seed=5)
        csv1, _ = run_benchmark(["avg", "absmax"], protocol, tmp_path / "one")
        csv2, _ = run_benchmark(["avg", "absmax"], protocol, tmp_path / "two")

        def stable_fields(path):
            return [
                (f[0], f[1], f[3], f[4], f[5])
                for f in (line.split(",") for line in path.read_text().splitlines()[1:])
            ]

        assert stable_fields(csv1) == stable_fields(csv2)

    def test_duplicate_method_identical_quality(self, tmp_path):
        protocol = BenchProtocol(image_size=32, trials=2, warmup_skip=1, seed=5)
        csv_path, _ = run_benchmark(["avg", "avg", "lp"], protocol, tmp_path / "dup")
        lines = csv_path.read_text().splitlines()[1:]
        assert len(lines) == 2  # duplicates collapse to one row

    def test_empty_methods_rejected(self, tmp_path):
        with pytest.raises(EmptyInputError):
            run_benchmark([], BenchProtocol(image_size=32, trials=2), tmp_path)

    def test_empty_pairs_rejected_before_timing(self, tmp_path, monkeypatch):
        monkeypatch.setattr("evofuse.bench.time_method", lambda *a, **k: pytest.fail("timed"))
        with pytest.raises(EmptyInputError, match="no evaluation pairs"):
            run_benchmark(["avg"], BenchProtocol(image_size=32, trials=2), tmp_path, pairs=[])


@pytest.mark.slow
def test_gcb_not_slower_than_regular_at_400():
    # medians of 5 timed forwards each, interleaved and alternating which runs
    # first: on a shared host a spell on one CPU covers about 4 forwards, so
    # one forward each could compare a one-core gcb with a two-core regular
    protocol = BenchProtocol(image_size=400, trials=2, warmup_skip=1)
    times = {"gcb": [], "regular": []}
    for i in range(5):
        for name in sorted(times, reverse=i % 2 == 1):
            times[name].append(time_method(name, protocol).latency_ms_mean)
    assert np.median(times["gcb"]) <= np.median(times["regular"]), times
