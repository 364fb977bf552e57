"""The package entry point re-exports nothing: every public name has one home,
`hcl.<module>.<name>`, and no attribute of `hcl` shadows a submodule.  A
module's `__all__` lists exactly what it defines in public.  Every memo cache in
the package is bounded, and no other module-level value grows with use.  The
README's library quick tour runs as written.  Each argument rule raises its
ValueError with its own message."""

import importlib
import os
import re
import subprocess
import sys
import types

import pytest

import hcl
from hcl import arith, holproj, hurwitz

SUBMODULES = ("arith", "hurwitz", "congruence", "dichotomy", "holproj", "qseries", "cli")


def test_import_hcl_loads_no_submodule_and_no_numpy():
    code = (
        "import sys, hcl\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'numpy' or m.startswith(('numpy.', 'hcl.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hcl.__file__)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr


def test_package_attributes_are_the_submodules():
    for name in SUBMODULES:
        module = importlib.import_module(f"hcl.{name}")
        assert getattr(hcl, name) is module, name
    from hcl import hurwitz

    assert isinstance(hurwitz, types.ModuleType) and hurwitz is sys.modules["hcl.hurwitz"]


def _module_state():
    """(identity, length) of every module-level value of every submodule."""
    state = {}
    for name in SUBMODULES:
        for attr, value in vars(importlib.import_module(f"hcl.{name}")).items():
            try:
                size = len(value)
            except TypeError:
                size = None
            state[f"{name}.{attr}"] = (id(value), size)
    return state


def test_every_cache_is_bounded():
    found = {}
    for name in SUBMODULES:
        for value in vars(importlib.import_module(f"hcl.{name}")).values():
            if hasattr(value, "cache_info"):
                found[f"{value.__module__}.{value.__qualname__}"] = value.cache_info().maxsize
    assert {
        "hcl.arith.sieve_primes",
        "hcl.holproj._subset_labels",
        "hcl.holproj._divisor_walk",
    } <= found.keys()
    for name, maxsize in found.items():
        assert type(maxsize) is int, (name, maxsize)

    # and nothing else grows: arith's sweeps change no module-level value
    from hcl.arith import factorize, sqrt_mod

    def sweep(moduli):
        for m in moduli:
            sqrt_mod(-1, m)
            factorize(m)
            factorize(m * 1_000_003)  # past 10^6: the lazy sieve

    sweep(range(2, 200))  # warm-up: lazy state is built once
    before = _module_state()
    sweep(range(200, 2000))
    sweep([9973, 10007, 3**9, 2**15, 999_983])
    assert _module_state() == before


def test_every_all_lists_the_public_definitions_and_nothing_stale():
    checked = 0
    for name in SUBMODULES:
        module = importlib.import_module(f"hcl.{name}")
        if not hasattr(module, "__all__"):
            continue
        checked += 1
        for export in module.__all__:
            assert hasattr(module, export), (name, export)
        defined = {
            attr
            for attr, value in vars(module).items()
            if not attr.startswith("_")
            and callable(value)
            and getattr(value, "__module__", None) == module.__name__
        }
        assert defined <= set(module.__all__), (name, sorted(defined - set(module.__all__)))
    assert checked >= 5


def test_readme_quick_tour_runs():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S)
    assert block, "README has no library quick tour"
    exec(compile(block.group(1), "README.md", "exec"), {})



ARGUMENT_RULES = [
    (arith.next_prime_in_class, (1, 0, 0), "modulus must be positive"),
    (arith.ord_p, (0, 3), "ord_p(0, p) is undefined"),
    (arith.p_part, (0, 3), "p_part expects n >= 1"),
    (arith.kronecker, (5, 0), "kronecker expects n >= 1"),
    (arith.sqrt_mod, (4, 0), "sqrt_mod expects m >= 1"),
    (hurwitz.hurwitz, (-1,), "hurwitz expects D >= 0"),
    (hurwitz.hurwitz_via_formula, (3, 0), "f must be a positive integer"),
    (hurwitz.build_table, (-1,), "n_max must be >= 0"),
    (holproj.subprogression_construct, (0, 0, 1), "a_tilde must be >= 1"),
]


@pytest.mark.parametrize(
    "fn, args, message",
    ARGUMENT_RULES,
    ids=[f"{fn.__name__}({', '.join(map(str, args))})" for fn, args, _ in ARGUMENT_RULES],
)
def test_argument_rules_raise_their_messages(fn, args, message):
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message
