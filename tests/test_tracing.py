"""The benchmark's tracer rebinds dpgraph's functions by module and name; a
module that stops binding one of those names would fail every traced round
while the rest of the suite passes."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_wraps_every_site_and_puts_the_originals_back():
    tracing = _load_tracing()
    sites = {}  # key -> [(module, attr)], each binding the owner's function
    for key, (owner, name, others) in tracing._TRACED.items():
        sites[key] = [(m, name) for m in (owner,) + others]
        sites[key] += list(tracing._ALIASES.get(key, ()))
    originals = {key: getattr(tracing._TRACED[key][0], tracing._TRACED[key][1])
                 for key in sites}
    for key, places in sites.items():
        for module, attr in places:
            assert getattr(module, attr, None) is originals[key], (
                f"{module.__name__}.{attr} does not bind {key}")

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
