import importlib
import inspect
import pkgutil

import ffhyper
import ffhyper.identities as ids
from ffhyper.characters import Character
from ffhyper.field import PrimeField
from ffhyper.hypergeo import HyperParams, QPowerRational

# Test-only references, now in tests/oracles.py, helpers no command used,
# the per-row report formatters that ReportBlock's columns replaced, the
# character objects that bare indices replaced, the exact-row helpers
# that the one exact-row judge replaced, and the charge and sweep tables and
# seed helper that identities.STATEMENTS and identities.SWEEPS replaced, and
# the exact descent's Python loop (now oracles.exact_numerators_naive).
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
