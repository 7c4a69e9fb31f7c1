"""SL2 representation bookkeeping: finite multisets of irreducibles S_n."""

from __future__ import annotations

from .poly import as_int


class SL2Rep:
    """A finite direct sum of irreducibles; S_n has dimension n + 1."""

    __slots__ = ("parts",)

    def __init__(self, weights=()):
        if isinstance(weights, int):
            weights = [weights]
        ws = sorted(as_int(w) for w in weights)
        if ws and ws[0] < 0:
            raise ValueError("highest weights must be nonnegative")
        self.parts = tuple(ws)

    def dim(self) -> int:
        return sum(w + 1 for w in self.parts)

    def __add__(self, other):
        if not isinstance(other, SL2Rep):
            return NotImplemented
        return SL2Rep(self.parts + other.parts)

    def __mul__(self, other):
        """Tensor product by Clebsch-Gordan, extended bilinearly."""
        if not isinstance(other, SL2Rep):
            return NotImplemented
        out = []
        for a in self.parts:
            for b in other.parts:
                out.extend(range(abs(a - b), a + b + 1, 2))
        return SL2Rep(out)

    def __eq__(self, other):
        if not isinstance(other, SL2Rep):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        if not self.parts:
            return "SL2Rep(0)"
        body = " + ".join("S%d" % w for w in self.parts)
        return "SL2Rep(%s)" % body


def _entry_dim(entry) -> int:
    if entry is None:
        raise ValueError("unresolved entry")
    if isinstance(entry, SL2Rep):
        return entry.dim()
    if isinstance(entry, int):
        if entry < 0:
            raise ValueError("dimensions must be nonnegative")
        return entry
    raise TypeError("sequence entries must be SL2Rep, int, or None")


def euler_solve(sequence) -> int:
    """Solve an exact sequence's alternating dimension ledger.

    Entries are SL2Rep, plain dimensions, or None for the single unknown.
    Returns the unknown's dimension (or 0 after verifying exactness when
    everything is known).  Raises if the ledger is inconsistent.
    """
    unknowns = [i for i, e in enumerate(sequence) if e is None]
    if len(unknowns) > 1:
        raise ValueError("at most one unknown entry is solvable")
    total = 0
    for i, entry in enumerate(sequence):
        if entry is None:
            continue
        total += (-1) ** i * _entry_dim(entry)
    if not unknowns:
        if total != 0:
            raise ValueError("exact sequence ledger does not balance: %d"
                             % total)
        return 0
    i = unknowns[0]
    value = -((-1) ** i) * total
    if value < 0:
        raise ValueError("solved dimension is negative: %d" % value)
    return value


def monomial_section_count(multidegree, divisor_class=None) -> int:
    """Sections of O(d_1,...,d_k) on (P^1)^k: product of (d_i + 1).

    With divisor_class = (e_1,...,e_k), counts sections of the restriction
    to a divisor of that class instead (kernel has all sections of the
    difference, no first cohomology in the cases used here).
    """
    ds = [as_int(d) for d in multidegree]
    if any(d < 0 for d in ds):
        return 0
    total = 1
    for d in ds:
        total *= d + 1
    if divisor_class is None:
        return total
    es = [as_int(e) for e in divisor_class]
    if len(es) != len(ds):
        raise ValueError("divisor class length mismatch")
    diff = [d - e for d, e in zip(ds, es)]
    if any(d < 0 for d in diff):
        return total
    sub = 1
    for d in diff:
        sub *= d + 1
    return total - sub
