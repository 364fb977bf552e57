"""bench/tracing.py wraps hcl functions by module and attribute name, so a
deletion or rename under src/ can break traced benchmark runs.  These tests
keep every traced name resolvable and the patching reversible."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from hcl.qseries import QSeries

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _holders(tracing):
    """Every (module, attribute) the tracer may swap, with its current value."""
    out = {}
    for modname, attr, _, _ in tracing.TRACED:
        for name in [modname] + tracing.IMPORTERS:
            holder = importlib.import_module(name)
            if attr in holder.__dict__:
                out[name, attr] = holder.__dict__[attr]
    return out


def test_every_traced_name_resolves(tracing):
    for modname, attr, _, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(modname), attr)), (modname, attr)
    for modname in tracing.IMPORTERS:
        importlib.import_module(modname)


def test_patched_swaps_and_restores_every_original(tracing):
    before = _holders(tracing)
    mul = QSeries.__dict__["__mul__"]
    tracer = tracing.Tracer()
    home = {attr: modname for modname, attr, _, _ in tracing.TRACED}
    with tracer.patched():
        during = _holders(tracing)
        # the defining module and every importer holding the same function
        for (name, attr), original in before.items():
            if original is before[home[attr], attr]:
                assert during[name, attr] is not original, (name, attr)
        assert QSeries.__dict__["__mul__"] is not mul
        one = QSeries(1, 3, {0: 1})
        assert (one * one).agrees_with(one)
    assert [span[0] for span in tracer.spans] == ["qseries.product"]
    after = _holders(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is original for key, original in before.items())
    assert QSeries.__dict__["__mul__"] is mul
