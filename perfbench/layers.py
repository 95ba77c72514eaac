"""Per-layer self time, recorded from the benchmark's own code.

The program's own ``repro.obs`` tracing stays off.  Instead a
:class:`LayerClock` times the calls into each layer's public functions:
the calls the benchmark makes itself, and the calls ``repro.pipeline``
makes, by rebinding those names in the ``repro.pipeline`` namespace
for the duration of a traced operation.  A layer's self time is its
span minus the spans recorded inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

#: ``repro.pipeline`` global -> layer.  :func:`traced_pipeline` adds
#: ``run_program`` (the exec layer of the op's mode) and the two
#: reconstructors.
PIPELINE_LAYERS = {
    "parse_program": "lang",
    "check_program": "lang",
    "build_program_cfgs": "cfg",
    "is_reducible": "cfg",
    "split_nodes": "cfg",
    "build_ecfg": "ecfg",
    "build_fcdg": "cdg",
    "build_call_graph": "callgraph",
}

ROOT = "op"


class LayerClock:
    """Nested spans of one operation, reduced to self time per layer."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    @contextmanager
    def span(self, layer: str):
        self._children.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            inner = self._children.pop()
            self.self_s[layer] += elapsed - inner
            if self._children:
                self._children[-1] += elapsed

    def wrap(self, fn, layer: str):
        def timed(*args, **kwargs):
            with self.span(layer):
                return fn(*args, **kwargs)

        return timed


@contextmanager
def rebound(module, names: dict):
    """Rebind ``module.<name>`` to ``names[name]`` until the block ends."""
    saved = {name: getattr(module, name) for name in names}
    for name, value in names.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def traced_pipeline(clock: LayerClock, mode: str, run_program):
    """The ``repro.pipeline`` rebindings for one traced operation.

    ``run_program`` is the callable to time as the exec layer (the
    benchmark passes its output-capturing wrapper).
    """
    import repro.pipeline as pipeline

    names = {
        name: clock.wrap(getattr(pipeline, name), layer)
        for name, layer in PIPELINE_LAYERS.items()
    }
    names["run_program"] = clock.wrap(run_program, f"exec.{mode}")
    names["reconstruct_profile"] = clock.wrap(
        pipeline.reconstruct_profile, "reconstruct.counters"
    )
    names["reconstruct_path_profile"] = clock.wrap(
        pipeline.reconstruct_path_profile, "reconstruct.paths"
    )
    return rebound(pipeline, names)
