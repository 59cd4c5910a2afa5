"""The benchmark's tracer rebinds dpgraph's functions by module and name; a
module that stops binding one of those names would fail every traced round
while the rest of the suite passes."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    """perfbench's `tracing` module, imported as the benchmark imports it:
    from perfbench/ on sys.path."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    module = importlib.import_module("tracing")
    yield module
    sys.modules.pop("tracing", None)


def _sites(tracing) -> dict:
    """key -> [(module, attr)], every place the tracer rebinds for that key."""
    sites = {}
    for key, (owner, name, others) in tracing._TRACED.items():
        sites[key] = [(m, name) for m in (owner,) + others]
        sites[key] += list(tracing._ALIASES.get(key, ()))
    return sites


def test_every_traced_name_binds_the_owners_object(tracing):
    assert set(tracing._ALIASES) <= set(tracing._TRACED)
    for key, places in _sites(tracing).items():
        owner, name, _ = tracing._TRACED[key]
        original = getattr(owner, name, None)
        assert callable(original), f"{owner.__name__} has no {name} for {key}"
        for module, attr in places:
            assert getattr(module, attr, None) is original, (
                f"{module.__name__}.{attr} does not bind {key}")


def test_the_tracer_wraps_every_site_and_puts_the_originals_back(tracing):
    sites = _sites(tracing)
    originals = {key: getattr(tracing._TRACED[key][0], tracing._TRACED[key][1])
                 for key in sites}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, places in sites.items():
            wrappers = {id(getattr(module, attr)) for module, attr in places}
            assert len(wrappers) == 1, key
            assert getattr(*places[0]) is not originals[key], key
    finally:
        tracer.uninstall()
    for key, places in sites.items():
        for module, attr in places:
            assert getattr(module, attr) is originals[key]
