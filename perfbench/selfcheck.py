"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/selfcheck.py

The file name keeps these out of the package's test collection.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from harness import pooled_ess, tail_percentile  # noqa: E402
from tracing import SpanRecorder, self_times  # noqa: E402


# ------------------------------------------------------------ tail percentile

def test_tail_leaves_exactly_ten_beyond():
    pct, value, n = tail_percentile(range(100))
    assert (pct, value, n) == (90.0, 89, 100)
    assert sum(v > value for v in range(100)) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    pct, value, n = tail_percentile([5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and n == 11
    assert math.isclose(pct, 100.0 / 11)


def test_tail_steps_below_ties():
    samples = list(range(20)) + [50] * 5 + [60] * 6
    pct, value, _ = tail_percentile(samples)
    assert sum(v > value for v in samples) >= 10
    assert value == 19  # 50 has only 6 samples beyond it
    assert math.isclose(pct, 100.0 * 20 / len(samples))


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))
    with pytest.raises(ValueError):
        tail_percentile([1.0] * 30)


# ----------------------------------------------------------------- self time

def test_self_time_subtracts_children_and_nesting():
    # root [0, 100] has children a [10, 40] and b [50, 70]; a has child c [15, 35]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 35, 70]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [50, 10, 20, 20]


def test_self_time_merges_overlapping_children():
    starts = [0, 10, 20]
    ends = [100, 50, 60]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == 50


def test_recorder_nests_wrapped_calls():
    rec = SpanRecorder()

    def leaf(x):
        return x + 1

    traced_leaf = rec.wrap(leaf, "leaf")

    def middle(x):
        return traced_leaf(x) * 2

    traced_middle = rec.wrap(middle, "middle", describe=lambda a, k, r, parent: {"parent": parent})
    with rec.span("op"):
        assert traced_middle(1) == 4
        with rec.paused():
            traced_leaf(0)
    assert rec.names == ["op", "middle", "leaf"]
    assert rec.parents == [-1, 0, 1]
    assert rec.attrs[1] == {"parent": "op"}
    selfs = self_times(rec.starts, rec.ends, rec.parents)
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == rec.ends[0] - rec.starts[0]


# ----------------------------------------------------------------------- ESS

def _ar1(phi: float, chains: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, n))
    x = np.empty((chains, n))
    x[:, 0] = noise[:, 0] / math.sqrt(1.0 - phi * phi)  # stationary start
    for t in range(1, n):
        x[:, t] = phi * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.3])
def test_ess_matches_ar1_closed_form(phi):
    chains, n = 4, 20_000
    expected = chains * n * (1.0 - phi) / (1.0 + phi)
    ess = pooled_ess(_ar1(phi, chains, n, seed=7))
    assert abs(ess - expected) / expected < 0.1


def test_ess_penalises_chains_that_disagree():
    x = _ar1(0.5, 4, 5_000, seed=3)
    shifted = x + np.array([[0.0], [0.0], [5.0], [5.0]])
    assert pooled_ess(shifted) < 0.1 * pooled_ess(x)


# ------------------------------------------------------ input determinism

@pytest.mark.parametrize("name", ["mle-study", "mcmc-calibration", "dist-measures"])
def test_inputs_depend_only_on_seed(name, tmp_path):
    from workloads import WORKLOADS

    def inputs(seed):
        w = WORKLOADS[name](seed, tmp_path)
        w.setup()
        if name == "dist-measures":
            return [w.t, w.u]
        sets = w.recovery + w.lr_data if name == "mle-study" else w.data
        return [np.concatenate([d.times, d.event_mask]) for d in sets]

    a, b, c = inputs(11), inputs(11), inputs(12)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_cli_pipeline_arguments_depend_only_on_seed(tmp_path):
    from workloads import WORKLOADS

    def argv(seed):
        w = WORKLOADS["cli-pipeline"](seed, tmp_path)
        w.setup()
        try:
            return [op.run.__defaults__ for op in next(w.batches())]
        finally:
            w.close()

    assert argv(5) == argv(5)
    assert argv(5) != argv(6)


# ------------------------------------------------------------ definition file

def test_benchmark_json_names_every_metric():
    from layers import PER_LAYER
    from run import END_TO_END_UNITS, WORKLOAD_NAMES

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
