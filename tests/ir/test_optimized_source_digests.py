"""Optimized kernel source stays byte-identical across optimizer work.

A performance change to the optimizer (memoized analyses, cheaper
fixpoint detection, passes that keep unchanged nodes) must not change
what it emits.  ``data/optimized_source_digests.json`` pins the sha1
of ``kernel.source`` for every entry of
:func:`repro.bench.figures.pack_programs` compiled at ``opt_level=2``
(the entry's own ``opt_level`` is overridden, its other options
kept), plus each figure's first entry at ``opt_level=1``, keyed by
the entry's label.  Regenerate it only for a deliberate change of the
optimizer's output, never for a performance change:

    PYTHONPATH=src python tests/ir/test_optimized_source_digests.py
"""

import hashlib
import json
import os
import sys

import repro.lang as fl
from repro.bench import figures

PINS = os.path.join(os.path.dirname(__file__), "data",
                    "optimized_source_digests.json")


def pinned_compiles():
    """``(pin_label, make_program, compile_opts)`` for every pin."""
    out = []
    first = {}
    for figure, label, make_program, opts in figures.pack_programs():
        opts = dict(opts, opt_level=2)
        out.append((label, make_program, opts))
        if figure not in first:
            first[figure] = (label, make_program, opts)
    for label, make_program, opts in first.values():
        out.append((label + " @1", make_program, dict(opts, opt_level=1)))
    return out


def source_digests():
    digests = {}
    for label, make_program, opts in pinned_compiles():
        kernel = fl.compile_kernel(make_program(), cache=False, **opts)
        digests[label] = hashlib.sha1(
            kernel.source.encode("utf-8")).hexdigest()
    return digests


def test_optimized_sources_unchanged():
    with open(PINS) as handle:
        pinned = json.load(handle)
    actual = source_digests()
    assert sorted(actual) == sorted(pinned)
    changed = sorted(label for label in pinned
                     if actual[label] != pinned[label])
    assert not changed, "optimized source changed for: %s" % changed


if __name__ == "__main__":
    with open(PINS, "w") as handle:
        json.dump(source_digests(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    sys.stdout.write("wrote %s\n" % PINS)
