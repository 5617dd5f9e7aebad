"""Fresh-name generation for emitted code.

The compiler introduces many runtime variables (stepper positions, phase
stops, accumulators).  A :class:`Namer` hands out names that are unique
within one compilation unit while staying readable: ``p``, ``p_2``,
``p_3``, ``phase_stop``, ``phase_stop_2`` and so on.
"""

import keyword
import re

_IDENT = re.compile(r"[^0-9a-zA-Z_]+")


def sanitize(hint):
    """Turn an arbitrary hint string into a valid Python identifier."""
    name = _IDENT.sub("_", str(hint)).strip("_")
    if not name:
        name = "v"
    if name[0].isdigit():
        name = "v" + name
    if keyword.iskeyword(name):
        name = name + "_"
    return name


class Namer:
    """Generates unique, readable identifiers.

    >>> n = Namer()
    >>> n.fresh("p")
    'p'
    >>> n.fresh("p")
    'p_2'
    >>> n.fresh("while")
    'while_'
    >>> Namer(reserved={"t", "t_2"}).fresh("t")
    't_3'
    """

    def __init__(self, reserved=()):
        self._counts = {}
        self._taken = set(reserved)

    def fresh(self, hint="v"):
        """A name derived from ``hint`` that is neither reserved nor
        already issued (``t_2`` is skipped when it was reserved, even
        though it is also the second name ``fresh("t")`` would try)."""
        base = sanitize(hint)
        count = self._counts.get(base, 0)
        while True:
            count += 1
            name = base if count == 1 else "%s_%d" % (base, count)
            if name not in self._taken:
                break
        self._counts[base] = count
        self._taken.add(name)
        return name

    def reserve(self, name):
        """Mark ``name`` as taken without returning it."""
        self._taken.add(name)
