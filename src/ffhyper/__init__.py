"""Finite-field character sums, Gaussian hypergeometric functions and
the machine verification of their moment, product and generating-function
identities."""

from .characters import Character, quadratic, trivial
from .charsums import SumTables
from .curves import TraceRecord, clausen_trace, legendre_trace
from .errors import (
    DivisionByZero,
    FFHyperError,
    FieldMismatch,
    Infeasible,
    NotOdd,
    NotPrime,
    NotRational,
    RejectedInput,
    SingularParameter,
)
from .field import PrimeField, is_prime, make_field
from .hypergeo import (
    DEFAULT_BUDGET,
    HyperParams,
    QPowerRational,
    appell_f4,
    hyper_all_x,
    hyper_char,
    hyper_exact_phi,
    reconstruct,
)

__all__ = [
    "Character",
    "DEFAULT_BUDGET",
    "DivisionByZero",
    "FFHyperError",
    "FieldMismatch",
    "HyperParams",
    "Infeasible",
    "NotOdd",
    "NotPrime",
    "NotRational",
    "PrimeField",
    "QPowerRational",
    "RejectedInput",
    "SingularParameter",
    "SumTables",
    "TraceRecord",
    "appell_f4",
    "clausen_trace",
    "hyper_all_x",
    "hyper_char",
    "hyper_exact_phi",
    "is_prime",
    "legendre_trace",
    "make_field",
    "quadratic",
    "reconstruct",
    "trivial",
]
