"""Tests for the benchmark's own code (not for the program it measures).

Run:  PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from catalog import END_TO_END, PER_LAYER, by_name  # noqa: E402
from spans import (  # noqa: E402
    SpanRecorder,
    check_metric_name,
    layer_totals,
    percentile,
    percentiles,
    root_wall,
    self_times,
)


def _recorder(spans):
    """A recorder from (name, layer, start, end, parent) tuples."""
    rec = SpanRecorder("synthetic")
    for name, layer, start, end, parent in spans:
        rec.names.append(name)
        rec.layers.append(layer)
        rec.starts.append(start)
        rec.ends.append(end)
        rec.parents.append(parent)
    return rec


class TestSelfTime:
    def test_nested_spans(self):
        #  root [0, 10]
        #    a [1, 4]      (core)
        #      b [2, 3]    (bfp)
        #    c [5, 9]      (core)
        #      d [5, 6]    (core, nested in the same layer)
        #      e [7, 9]    (rns)
        rec = _recorder([
            ("root", "bench", 0.0, 10.0, -1),
            ("a", "core", 1.0, 4.0, 0),
            ("b", "bfp", 2.0, 3.0, 1),
            ("c", "core", 5.0, 9.0, 0),
            ("d", "core", 5.0, 6.0, 3),
            ("e", "rns", 7.0, 9.0, 3),
        ])
        selfs = self_times(rec.starts, rec.ends, rec.parents)
        assert selfs == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]
        assert sum(selfs) == pytest.approx(root_wall(rec))
        totals = layer_totals(rec, selfs)
        assert totals["core"]["self_s"] == 4.0
        assert totals["core"]["spans"] == 3
        # d is entered from core itself, so it is not a new entry.
        assert totals["core"]["entries"] == 2
        assert totals["core"]["entry_s"] == 7.0
        assert totals["bench"]["self_s"] == 3.0

    def test_overlapping_children_are_counted_once(self):
        starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0]
        assert self_times(starts, ends, parents)[0] == 5.0

    def test_child_outside_parent_is_clipped(self):
        starts, ends, parents = [0.0, 8.0], [10.0, 12.0], [-1, 0]
        assert self_times(starts, ends, parents)[0] == 8.0

    def test_recorder_nesting(self):
        rec = SpanRecorder("w", repetition=3)
        outer = rec.open("outer", "x")
        inner = rec.open("inner", "y")
        rec.close(inner)
        rec.close(outer)
        assert rec.parents == [-1, 0]
        rows = list(rec.rows())
        assert rows[1][1:3] == ("inner", "y") and rows[1][5:] == (0, "w", 3)
        with pytest.raises(RuntimeError):
            a = rec.open("a", "x")
            rec.open("b", "x")
            rec.close(a)


class TestPercentiles:
    def test_values_and_counts(self):
        values = [float(v) for v in range(1, 1001)]
        out = percentiles(values)
        assert out["count"] == 1000
        assert out["p50"] == pytest.approx(500.5)
        assert out["p99"] == pytest.approx(990.01)
        assert out["p50_beyond"] == 500
        assert out["p99_beyond"] == 10

    def test_single_sample(self):
        out = percentiles([2.5])
        assert out == {"count": 1, "p50": 2.5, "p50_beyond": 0,
                       "p99": 2.5, "p99_beyond": 0}

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


def test_host_speed_samples_through_the_block_and_restores_the_timer():
    import signal
    import time

    from hostspeed import PERIOD_S, HostSpeed

    def previous(signum, frame):
        pass

    old = signal.signal(signal.SIGPROF, previous)
    try:
        speed = HostSpeed()
        c0 = time.process_time()
        with speed:
            total = 0
            while time.process_time() - c0 < 8 * PERIOD_S:
                total += sum(range(1000))
        spent = time.process_time() - c0
        # One probe on entry plus about one per PERIOD_S of CPU time.
        assert len(speed.samples) >= 4
        assert all(s > 0 for s in speed.samples)
        assert 0 < speed.spent_s < spent
        assert speed.slowdown() > 0
        assert signal.getsignal(signal.SIGPROF) is previous
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGPROF, old)


class TestMetricNames:
    @pytest.mark.parametrize("name", ["setup_s", "core.us_per_call", "a-b.c_d", "9x"])
    def test_valid(self, name):
        assert check_metric_name(name) == name

    @pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65])
    def test_invalid(self, name):
        with pytest.raises(ValueError):
            check_metric_name(name)

    def test_catalog_names_are_valid_and_unique(self):
        names = [m.name for m in END_TO_END + PER_LAYER]
        assert len(names) == len(set(names))
        for name in names:
            check_metric_name(name)
        assert len(END_TO_END) <= 16 and len(PER_LAYER) <= 128

    def test_benchmark_json_matches_catalog(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = [(m["name"], m["unit"], m["better"], m.get("bound"))
                      for m in spec[key]]
            assert listed == [(m.name, m.unit, m.better, m.bound) for m in metrics]
        setup = by_name()["setup_s"]
        assert (setup.unit, setup.better) == ("s", "lower")
        assert setup.bound == max(m.bound for m in END_TO_END)


class TestLayerWrappers:
    def test_wrappers_record_and_are_restored(self):
        import numpy as np

        from layers import _resolve, layer_targets, traced
        from repro.core import PhotonicRnsTensorCore
        from repro.rns import conversion

        targets = layer_targets()
        before = {}
        holders = {}
        for _, target, _ in targets:
            module, owner, attr = _resolve(target)
            if owner is None:
                fn = getattr(module, attr)
                before[target] = fn
                holders[target] = [
                    (m, k) for m in list(sys.modules.values()) if m is not None
                    for k, v in list(vars(m).items()) if v is fn
                ]
            else:
                before[target] = vars(owner)[attr]

        rec = SpanRecorder("test")
        w = np.arange(12.0).reshape(3, 4)
        x = np.ones((4, 2))
        with traced(rec, targets) as patcher:
            assert patcher.installed >= len(targets)
            assert conversion.crt_reverse is not before[
                "repro.rns.conversion:crt_reverse"]
            PhotonicRnsTensorCore().matmul(w, x)
        assert "core" in rec.layers and "bfp" in rec.layers
        assert rec.counters["core.macs"] == 3 * 4 * 2

        with pytest.raises(ZeroDivisionError):
            with traced(SpanRecorder("test"), targets):
                1 / 0

        for _, target, _ in targets:
            module, owner, attr = _resolve(target)
            if owner is None:
                for mod, key in holders[target]:
                    assert vars(mod)[key] is before[target], (mod.__name__, key)
            else:
                assert vars(owner)[attr] is before[target], target


def test_runner_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-exec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
