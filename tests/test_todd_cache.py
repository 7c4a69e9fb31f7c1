"""The Todd class of a ring's tangent bundle is built once per ring."""

from math import comb

from chowcalc import bundles
from chowcalc.bundles import (BundleClass, chern_character, chi_of_character,
                              grr_push_curve, hrr_chi, tangent_bundle,
                              todd_class)
from chowcalc.rings import projective_space


def test_todd_class_is_built_once_per_ring(monkeypatch):
    calls = []

    def counting_todd(e):
        calls.append(e.ring)
        return todd_class(e)

    monkeypatch.setattr(bundles, "todd_class", counting_todd)
    p5 = projective_space(5)
    h = p5.var("h")
    first = [hrr_chi(BundleClass.line(p5, d * h)) for d in range(-2, 4)]
    second = [chi_of_character(p5, chern_character(BundleClass.line(p5, d * h)))
              for d in range(-2, 4)]
    assert calls == [p5]
    assert first == second == [comb(d + 5, 5) for d in range(-2, 4)]
    assert p5.todd == todd_class(tangent_bundle(p5)).rep
    # a second ring builds its own, and the first ring's is untouched
    p3 = projective_space(3)
    pushed = grr_push_curve(p3, 0, p3.var("h") ** 2, p3.var("h") ** 3, 0)
    assert calls == [p5, p3]
    assert str(pushed) == "-h^3 + h^2"  # ch(O_line) = h^2 - h^3
    assert hrr_chi(BundleClass.line(p5, h)) == 6
    assert calls == [p5, p3]
