"""Finite-field character sums, Gaussian hypergeometric functions and
the machine verification of their moment, product and generating-function
identities."""

from .characters import Character, all_characters, delta_char, delta_elem, quadratic, trivial
from .charsums import SumTables
from .curves import TraceRecord, clausen_trace, count_points_naive, legendre_trace
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
    hyper_inductive_step,
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
    "all_characters",
    "appell_f4",
    "clausen_trace",
    "count_points_naive",
    "delta_char",
    "delta_elem",
    "hyper_all_x",
    "hyper_char",
    "hyper_exact_phi",
    "hyper_inductive_step",
    "is_prime",
    "legendre_trace",
    "make_field",
    "quadratic",
    "reconstruct",
    "trivial",
]
