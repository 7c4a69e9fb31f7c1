"""Standard monomials built degree by degree equal the full enumeration.

`GroebnerBasis.standard_monomials(d)` finds degree d's standard monomials
among x_i times those of degree d - w_i (they form an order ideal) and
keeps each degree's list.  On every catalog ring, every derived ring of
`test_derived_forms.BUILDERS` and the minors ideal of `cubic-locus`, each
degree up to two past the ring's dimension (8 on the minors ideal, as the
check reads it) must give the monomials of `monomials_of_degree` that no
lead divides, in the same order.
"""

import pytest

from chowcalc.pencil import Quasimonad
from chowcalc.poly import GroebnerBasis, mono_divides, monomials_of_degree
from chowcalc.rings import catalog

from test_derived_forms import BUILDERS

CATALOG = ("P5", "P1^3", "P1^4", "G26", "Gw36", "B", "FB", "I", "Pi")


def full_enumeration(gb, degree):
    return [m for m in monomials_of_degree(gb.sig, degree)
            if not any(mono_divides(lead, m) for lead in gb.leads)]


def fresh_copy(gb):
    """The same basis with nothing kept, so each test builds its lists."""
    return GroebnerBasis.derived(gb.elements, gb.rule, gb.limit)


def basis_of(name):
    """(basis, top degree) of a catalog ring, a BUILDERS ring or "minors"."""
    if name == "minors":
        gens = Quasimonad.built_in().minor_ideal_generators()
        return GroebnerBasis(gens), 8
    ring = catalog(name) if name in CATALOG else BUILDERS[name]()
    return ring.gb, ring.dim + 2


@pytest.mark.parametrize("name", CATALOG + tuple(
    name for name in BUILDERS if name not in CATALOG) + ("minors",))
def test_degree_by_degree_equals_the_full_enumeration(name):
    gb, top = basis_of(name)
    gb = fresh_copy(gb)
    for degree in range(top + 1):
        assert gb.standard_monomials(degree) == full_enumeration(gb, degree)
    # asked again, out of order, from the kept lists
    for degree in range(top, -1, -1):
        assert gb.standard_monomials(degree) == full_enumeration(gb, degree)
    assert gb.hilbert_function(top) == [
        len(full_enumeration(gb, d)) for d in range(top + 1)]


def test_a_high_degree_first_fills_every_lower_one():
    gb = fresh_copy(catalog("G26").gb)
    assert gb.standard_monomials(9) == full_enumeration(gb, 9) == []
    assert [len(gb.standard_monomials(d)) for d in range(9)] == \
        [1, 1, 2, 2, 3, 2, 2, 1, 1]


def test_the_kept_list_is_not_handed_out():
    gb = fresh_copy(catalog("B").gb)
    first = gb.standard_monomials(2)
    first.clear()
    assert gb.standard_monomials(2) == full_enumeration(gb, 2) != []


def test_a_negative_degree_has_no_standard_monomial():
    assert catalog("P5").gb.standard_monomials(-1) == []
