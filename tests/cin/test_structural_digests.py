"""Structural keys stay bit-identical across refactors of the key walk.

The on-disk kernel store and the kernel service address every artifact
by ``structural_digest(structural_key(program), 40)``.  A key walk that
changes the key's value, even without changing which programs share a
key, turns every existing store into misses.  ``data/
structural_digests.json`` pins that digest for each entry of
:func:`repro.bench.figures.pack_programs` (the programs a pack ships),
keyed by the entry's label.  Regenerate it only for a deliberate
change of the key's format, which orphans every stored artifact.
"""

import json
import os

from repro.bench import figures
from repro.cin.analyze import structural_digest, structural_key

PINS = os.path.join(os.path.dirname(__file__), "data",
                    "structural_digests.json")


def test_pack_program_digests_unchanged():
    with open(PINS) as handle:
        pinned = json.load(handle)
    actual = {}
    for _, label, make_program, _ in figures.pack_programs():
        actual[label] = structural_digest(structural_key(make_program()), 40)
    assert sorted(actual) == sorted(pinned)
    changed = sorted(label for label in pinned
                     if actual[label] != pinned[label])
    assert not changed, "structural keys changed for: %s" % changed
