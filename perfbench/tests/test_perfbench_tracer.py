import sys
import types

import numpy as np
import pytest

from tracer import Span, Tracer, install, layer_self_times, self_times


def test_self_time_is_span_minus_direct_children():
    spans = [
        Span(0, None, "cli.self", 0.0, 10.0),
        Span(1, 0, "catalog.build", 1.0, 4.0),
        Span(2, 0, "oracle.derive", 5.0, 9.0),
        Span(3, 2, "oracle.outcome_maps", 6.0, 7.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    assert layer_self_times(spans) == {
        "cli.self": 3.0, "catalog.build": 3.0, "oracle.derive": 3.0, "oracle.outcome_maps": 1.0,
    }


class TickClock:
    """Advances one unit per reading, so every span's extent is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _module(name, source, **names):
    module = types.ModuleType(name)
    module.__dict__.update(names)
    exec(source, module.__dict__)
    sys.modules[name] = module
    return module


@pytest.fixture
def fakepkg():
    pkg = _module("fakepkg", "")
    patterns = _module("fakepkg.patterns", """
def validate_pattern(p):
    if p == "bad":
        raise ValueError(p)
""")
    oracle = _module("fakepkg.oracle", """
def outcome_maps(p):
    return {"a": np.zeros((2, 2)), "b": np.eye(2), "c": np.zeros((2, 2))}

def derive_corrections_with_failures(p):
    maps = outcome_maps(p)
    return dict(maps), ["b"]

def derive_corrections(p):
    return derive_corrections_with_failures(p)[0]
""", np=np)
    catalog = _module("fakepkg.catalog", """
def build_pattern(p):
    validate_pattern(p)
    return p
""", validate_pattern=patterns.validate_pattern)
    pkg.validate_pattern = patterns.validate_pattern
    yield pkg, patterns, oracle, catalog
    for name in ("fakepkg", "fakepkg.patterns", "fakepkg.oracle", "fakepkg.catalog"):
        del sys.modules[name]


def test_install_wraps_every_binding_and_nests_spans(fakepkg):
    pkg, patterns, oracle, catalog = fakepkg
    tr = Tracer(clock=TickClock())
    assert install(tr, package="fakepkg") == 5
    assert catalog.validate_pattern is patterns.validate_pattern is pkg.validate_pattern

    catalog.build_pattern("good")
    with pytest.raises(ValueError):
        catalog.build_pattern("bad")
    oracle.derive_corrections("p")

    build, validate = tr.spans[0], tr.spans[1]
    assert (build.layer, build.parent) == ("catalog.build", None)
    assert (validate.layer, validate.parent) == ("patterns.validate", build.id)
    derive, inner, maps = tr.spans[4:]
    assert (derive.parent, inner.parent, maps.parent) == (None, derive.id, inner.id)

    summary = tr.summary()
    assert summary["catalog.builds"] == 2
    assert summary["patterns.validate_calls"] == 2
    assert summary["patterns.validate_rejects"] == 1
    assert summary["oracle.derive_outcomes"] == 3
    assert summary["oracle.derive_unrepairable"] == 1
    assert summary["oracle.derive_zero_maps"] == 2
    assert summary["oracle.outcome_maps_calls"] == 1
    assert summary["trace.spans"] == 7
    # The clock ticks once per reading and each wrapper reads it four times:
    # on entry, before and after the traced call, and on exit. So every span
    # carries two ticks of tracer overhead, and each function body between
    # readings takes one tick: derive_corrections spans 11 ticks and its
    # child 7, which holds outcome_maps' 3.
    assert (derive.end - derive.start, inner.end - inner.start, maps.end - maps.start) == (11, 7, 3)
    assert summary["oracle.derive_s"] == (11 - 7 - 2) + (7 - 3 - 2)
    assert summary["oracle.outcome_maps_s"] == 3 - 2
    assert summary["trace.overhead_s"] == 2 * 7
