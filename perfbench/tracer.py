"""Run one regasym CLI invocation with spans recorded around its layers.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/tracer.py SPANS.json INVOCATION_ID -- <regasym arguments>

The regasym package is not modified: after ``regasym.cli`` is imported,
each function named in ``TARGETS`` is replaced by a wrapper in every
``regasym`` module that binds it (``connected`` imports ``sg_series``,
``cli`` reaches into ``counts``), and methods are replaced on their
class.  A wrapper records one span per call: id, parent span, name,
start, end and an optional extra (output size, input size, or the name
of the exception it raised).  Spans stay in memory and are written to
SPANS.json when the invocation ends, together with the import time of
``regasym.cli`` and the ``cache_info()`` of the cached functions.

``self_times`` turns spans into per-name self time; ``run.py`` imports
it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# Layer functions wrapped, per module of the regasym package.
TARGETS = {
    "cli": ["main"],
    "series": ["newton_solve_tree", "Series.compose", "Series.pow_rational", "Series.exp"],
    "multipoly": ["PolySeries.exp", "PolySeries.log", "PolySeries.inverse", "gaussian_hadamard"],
    "laplace": ["stirling_series", "psi_from_phase"],
    "counts": [
        "inner_bracket",
        "count_hadamard",
        "count_brute",
        "count_two_regular",
        "load_bfile",
        "CountTable.load_cache",
        "CountTable.save_cache",
        "egf_reciprocal_coeffs",
    ],
    "regular": [
        "c2_series",
        "b0_row",
        "u_pq",
        "v_pq",
        "tree_series",
        "expansion_psi",
        "sg_expansion",
        "formal_k_interpolate",
    ],
    "connected": ["csg_tilde", "shifted_expansion", "valuation_gap"],
    "validation": ["residual", "compare_to_golden"],
}

# Memoized functions whose cache_info() is read when the invocation ends.
CACHED = ["regular.u_pq", "regular.b0_row", "regular.v_pq", "regular.sg_tilde_coeff"]


def _poly_series_terms(args, result):
    return {"terms": sum(len(result.coeff(i).terms) for i in range(result.order + 1))}


def _mpoly_terms(args, result):
    return {"terms": len(result.terms)}


def _input_terms(args, result):
    return {"terms_in": len(args[0].terms)}


# Sizes recorded on a span, from the call's arguments and result.  For a
# memoized function only calls that computed (missed the cache) count.
# A size that cannot be read is recorded as "unmeasured" instead.
MEASURES = {
    "regular.c2_series": _poly_series_terms,
    "counts.inner_bracket": _mpoly_terms,
    "multipoly.gaussian_hadamard": _input_terms,
}


class Recorder:
    """Spans of one invocation, held in memory: [id, parent, name, start, end, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn, measure=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, clock(), None, None]
            spans.append(span)
            stack.append(span[0])
            misses = cache_info().misses if cache_info else 0
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if measure and (cache_info is None or cache_info().misses > misses):
                try:
                    span[5] = measure(args, result)
                except (AttributeError, TypeError):  # the type changed shape
                    span[5] = {"unmeasured": 1}
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every target in place; returns the targets this version lacks."""
    modules = [m for n, m in sys.modules.items() if n == "regasym" or n.startswith("regasym.")]
    missing = []
    for mod_name, targets in TARGETS.items():
        module = sys.modules.get(f"regasym.{mod_name}")
        for target in targets:
            name = f"{mod_name}.{target}"
            measure = MEASURES.get(name)
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                missing.append(name)
            elif owner_name:
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(recorder.wrap(name, raw.__func__, measure)))
                else:
                    setattr(owner, attr, recorder.wrap(name, raw, measure))
            else:
                traced = recorder.wrap(name, raw, measure)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, traced)
    return missing


def self_times(spans) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's."""
    child = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(float)
    for sid, _, name, start, end, _ in spans:
        out[name] += (end - start) - child[sid]
    return dict(out)


def main(argv: list[str]) -> int:
    spans_path, invocation = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: tracer.py SPANS.json INVOCATION_ID -- <regasym arguments>")
    started = time.perf_counter()
    import regasym.cli

    import_s = time.perf_counter() - started
    caches = {}
    for name in CACHED:  # capture the memoized objects before they are wrapped
        mod_name, _, attr = name.partition(".")
        caches[name] = getattr(sys.modules[f"regasym.{mod_name}"], attr, None)
    recorder = Recorder()
    missing = install(recorder)
    try:
        return regasym.cli.main(argv[3:])
    finally:
        sys.stdout.flush()
        stats = {}
        for name, fn in caches.items():
            if hasattr(fn, "cache_info"):
                stats[name] = list(fn.cache_info()[:2])  # hits, misses
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "invocation": invocation,
                    "import_s": import_s,
                    "spans": recorder.spans,
                    "caches": stats,
                    "missing": missing,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
