"""chowcalc: exact intersection-theory calculator and verification checks."""

from chowcalc.poly import (
    GroebnerBasis,
    ParseError,
    Poly,
    Signature,
    groebner_basis,
    parse_poly,
)

__all__ = [
    "GroebnerBasis",
    "ParseError",
    "Poly",
    "Signature",
    "groebner_basis",
    "parse_poly",
]

__version__ = "0.1.0"
