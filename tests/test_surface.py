import importlib
import inspect
import pkgutil

import ffhyper
import ffhyper.hypergeo as hypergeo
import ffhyper.identities as ids
from ffhyper.characters import Character
from ffhyper.field import PrimeField
from ffhyper.hypergeo import HyperParams, QPowerRational

# Test-only references, now in tests/oracles.py, helpers no command used,
# the per-row report formatters that ReportBlock's columns replaced, the
# character objects that bare indices replaced, the exact-row helpers
# that the one exact-row judge replaced, and the charge and sweep tables and
# seed helper that identities.STATEMENTS and identities.SWEEPS replaced, and
# the exact descent's Python loop (now oracles.exact_numerators_naive), and
# the per-row report builders that the two column builders replaced, and
# the inductive sides now inlined in verify_inductive_k, and the row type
# that ReportBlock's columns replaced (now in tests/oracles.py), and the
# line sign parity table that a strided sign flip replaced, and the scalar
# nearest-integer rule that reconstruct_ints replaced.
GONE = (
    "hyper_inductive_step",
    "count_points_naive",
    "hasse_bound",
    "verify_legendre_bridge",
    "verify_clausen_bridge",
    "report_from_json",
    "value_from_json",
    "fmt_value",
    "value_to_json",
    "report_to_json",
    "delta_elem",
    "delta_char",
    "all_characters",
    "quadratic",
    "trivial",
    "FieldMismatch",
    "moment_sweep_rows",
    "_exact_report",
    "_reconstructed",
    "CHARGES",
    "_SWEEPS",
    "_rng_for",
    "_exact_numerators",
    "_float_report",
    "_exact_ints",
    "_parts",
    "_inductive_sides",
    "IdentityReport",
    "_parity",
    "_nearest",
)


def test_package_surface():
    """__all__ resolves on the package, and no ffhyper module defines a test-only name."""
    assert [name for name in ffhyper.__all__ if not hasattr(ffhyper, name)] == []
    modules = [ffhyper] + [importlib.import_module(f"ffhyper.{m.name}") for m in pkgutil.iter_modules(ffhyper.__path__)]
    assert len(modules) > 8
    assert [(m.__name__, name) for m in modules for name in GONE if hasattr(m, name)] == []
    assert [name for name in ("at_minus_one", "__mul__", "inverse", "is_trivial") if hasattr(Character, name)] == []
    assert [name for name in ("field", "index_key") if hasattr(HyperParams, name)] == []
    assert not hasattr(QPowerRational, "value")
    assert not hasattr(ids.ReportBlock, "of")
    # One canonical form of num / q**npow: identities imports hypergeo's and defines none.
    assert ids._canonical is hypergeo._canonical
    # A block is columns only: len() is its row count, and it builds no row.
    assert "__len__" in ids.ReportBlock.__dict__ and not hasattr(ids.ReportBlock, "__getitem__")
    # No code compares or hashes fields: each keeps identity equality.
    assert [name for name in ("__eq__", "__hash__") if name in PrimeField.__dict__] == []


def test_identities_takes_no_budget():
    """The work budget is a command-line policy: no identity check or sweep takes one."""
    functions = [
        f for _, c in inspect.getmembers(ids, inspect.isclass) if c.__module__ == ids.__name__
        for _, f in inspect.getmembers(c, inspect.isfunction)
    ] + [f for _, f in inspect.getmembers(ids, inspect.isfunction) if f.__module__ == ids.__name__]
    assert len(functions) > 30
    assert [f.__qualname__ for f in functions if "budget" in inspect.signature(f).parameters] == []
    assert not hasattr(ids, "DEFAULT_BUDGET")


def test_hypergeo_evaluators_take_tables_not_a_field():
    """Every public hypergeo evaluator reads its prime off the SumTables it is given, and takes no work budget."""
    evaluators = (
        hypergeo.hyper_char,
        hypergeo.hyper_all_x,
        hypergeo.hyper_twisted_sum,
        hypergeo.appell_f4,
        hypergeo.appell_f4_batch,
        hypergeo.hyper_exact_phi,
    )
    params = [inspect.signature(f).parameters for f in evaluators]
    assert [f.__name__ for f, p in zip(evaluators, params) if "field" in p or "tables" not in p] == []
    assert [f.__name__ for f, p in zip(evaluators, params) if "budget" in p] == []
