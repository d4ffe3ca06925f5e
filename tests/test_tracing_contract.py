"""The benchmark's traced run wraps names of the package by attribute.

``perfbench/tracing.py`` patches module functions, class attributes and
``measures.integrate`` for a traced run and restores them afterwards.  A
name the package drops or renames makes ``--trace 1`` crash, so this
checks that the wrappers install and that every patched attribute is
restored on exit.
"""

import importlib.util
from pathlib import Path

from kumiw import bayes, cli, distribution, measures, mle, survdata

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

OWNERS = (
    bayes, cli, distribution, measures, mle, survdata,
    mle._Loglik, bayes.PriorSpec, survdata.CensoredDataset,
)


def _snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def test_instrumented_patches_and_restores():
    before = _snapshot()
    with tracing.instrumented(tracing.SpanRecorder()):
        during = _snapshot()
        measures.bonferroni(distribution.KumIwParams(0.7, 1.0, 5.0), 0.5)
    after = _snapshot()

    patched = {
        (owner.__name__, name)
        for owner, old, new in zip(OWNERS, before, during)
        for name in old
        if new[name] is not old[name]
    }
    assert {("kumiw.measures", "upper_incomplete_gamma"), ("kumiw.measures", "integrate"),
            ("kumiw.mle", "log1m_exp"), ("kumiw.bayes", "log1m_exp")} <= patched
    for owner, old, new in zip(OWNERS, before, after):
        assert new.keys() == old.keys(), owner.__name__
        changed = [name for name in old if new[name] is not old[name]]
        assert not changed, (owner.__name__, changed)
