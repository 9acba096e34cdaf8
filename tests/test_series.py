from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from regasym.regular import expansion_psi, u_pq_lagrange
from regasym.series import (
    BadConstantTerm,
    BadParity,
    Series,
    ValuationViolation,
    double_factorial,
    fraction_dot,
    newton_solve_tree,
    rational_str,
)

from conftest import small_fractions
from laplace_oracle import compose


def series_strategy(order=5, zero_constant=False, unit_constant=False):
    head = st.just(Fraction(0)) if zero_constant else small_fractions()
    if unit_constant:
        head = st.just(Fraction(1))
    return st.builds(
        lambda c0, rest: Series([c0] + rest, order),
        head,
        st.lists(small_fractions(), min_size=order, max_size=order),
    )


def sympy_series_coeffs(expr, z, order):
    poly = sympy.series(expr, z, 0, order + 1).removeO()
    return [Fraction(str(poly.coeff(z, i))) for i in range(order + 1)]


# -- construction and order bookkeeping -------------------------------------


def test_min_order_rule_add():
    a = Series([1, 1, 1], 2)
    b = Series([1, -1], 5)
    s = a + b
    assert s == Series([2, 0, 1], 2)
    assert s.order == 2


def test_product_difference_of_squares():
    a = Series([1, 1], 3)
    b = Series([1, -1], 3)
    assert a * b == Series([1, 0, -1, 0], 3)


def scalar_series_strategy():
    # zeros, small signed fractions and numerators and denominators far past
    # a machine word, at any order from 0 to 8
    coefficient = st.one_of(
        st.just(Fraction(0)),
        small_fractions(),
        st.builds(
            Fraction,
            st.integers(min_value=-(10**30), max_value=10**30),
            st.integers(min_value=1, max_value=10**40),
        ),
    )
    return st.integers(min_value=0, max_value=8).flatmap(
        lambda order: st.lists(coefficient, min_size=order + 1, max_size=order + 1).map(
            lambda cs: Series(cs, order)
        )
    )


@settings(max_examples=200, deadline=None)
@given(scalar_series_strategy(), scalar_series_strategy())
def test_scalar_product_matches_termwise_dot(a, b):
    # the product over the operands' lcm denominators equals the sum of
    # a_i b_(m-i), term by term, through the lower of the two orders
    n = min(a.order, b.order)
    expected = [fraction_dot((1, a[i], b[m - i]) for i in range(m + 1)) for m in range(n + 1)]
    for product in (a * b, b * a):
        assert product.order == n and list(product.coefficients) == expected
        assert all(type(c) is Fraction for c in product.coefficients)


def test_product_of_monomials():
    x = Series.x(2)
    assert x * x == Series([0, 0, 1], 2)


def test_coefficients_beyond_order_are_unknown():
    a = Series([1, 2], 1)
    with pytest.raises(IndexError):
        a[2]


def test_valuation():
    assert Series([0, 0, 3], 4).valuation() == 2
    assert Series.zero(3).valuation() == 4


# -- division by a unit series: times its pow_rational(-1) -------------------


def test_div_geometric():
    assert Series([1, -1], 4).pow_rational(-1) == Series([1, 1, 1, 1, 1], 4)


def test_div_long_division_oracle():
    # oracle: sympy series expansion of 2 z^3 / (1 + z)
    z = sympy.symbols("z")
    expected = sympy_series_coeffs(2 * z**3 / (1 + z), z, 4)
    got = Series([0, 0, 0, 2], 4) * Series([1, 1], 4).pow_rational(-1)
    assert list(got.coefficients) == expected
    assert got[3] == 2 and got[4] == -2


def test_shift_down_guards_valuation():
    with pytest.raises(ValuationViolation):
        Series([1, 0], 1).shift_down(1)


# -- exp / log / pow ----------------------------------------------------------


def test_exp_example():
    assert Series.x(3).exp() == Series([1, 1, Fraction(1, 2), Fraction(1, 6)], 3)


def test_log_example():
    assert Series([1, 1], 3).log() == Series(
        [0, 1, Fraction(-1, 2), Fraction(1, 3)], 3
    )


def test_pow_binomial_oracle():
    # oracle: explicit binomial coefficients of (1 - z^2)^(-1/2)
    def binom_half(m):
        acc = Fraction(1)
        for i in range(m):
            acc *= Fraction(-1, 2) - i
            acc /= i + 1
        return acc

    got = Series([1, 0, -1], 4).pow_rational(Fraction(-1, 2))
    expected = [binom_half(m) * (-1) ** m for m in range(3)]
    assert got[0] == expected[0] == 1
    assert got[2] == expected[1] == Fraction(1, 2)
    assert got[4] == expected[2] == Fraction(3, 8)
    assert got[1] == got[3] == 0


def test_exp_log_pow_need_right_constant():
    with pytest.raises(BadConstantTerm):
        Series([1, 1], 2).exp()
    with pytest.raises(BadConstantTerm):
        Series([0, 1], 2).log()
    with pytest.raises(BadConstantTerm):
        Series([2, 1], 2).pow_rational(Fraction(1, 2))
    with pytest.raises(BadConstantTerm):
        Series([0, 1], 3).pow_rational(-1)  # only a unit series is inverted


@settings(max_examples=60, deadline=None)
@given(series_strategy(order=6, zero_constant=True), series_strategy(order=6, zero_constant=True))
def test_exp_is_homomorphism(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


@settings(max_examples=60, deadline=None)
@given(series_strategy(order=6, zero_constant=True))
def test_log_inverts_exp(a):
    assert a.exp().log() == a


@settings(max_examples=40, deadline=None)
@given(
    series_strategy(order=6, unit_constant=True),
    small_fractions(max_num=4, max_den=3),
    small_fractions(max_num=4, max_den=3),
)
def test_pow_addition_law(a, p, q):
    assert a.pow_rational(p) * a.pow_rational(q) == a.pow_rational(p + q)


@settings(max_examples=40, deadline=None)
@given(series_strategy(order=6, unit_constant=True))
def test_pow_minus_one_is_division(a):
    assert a.pow_rational(-1) * a == Series.one(6)


# -- composition ---------------------------------------------------------------


def test_compose_affine():
    outer = Series([1, 1], 3)
    inner = Series([0, 2], 3)
    assert compose(outer, inner) == Series([1, 2, 0, 0], 3)


def test_compose_log_oracle():
    # log(1 + z/(1-z)) = -log(1-z); oracle via sympy
    z = sympy.symbols("z")
    expected = sympy_series_coeffs(sympy.log(1 + z / (1 - z)), z, 3)
    outer = Series([0, 1, Fraction(-1, 2), Fraction(1, 3)], 3)
    inner = Series([0, 1, 1, 1], 3)
    got = compose(outer, inner)
    assert list(got.coefficients) == expected == [0, 1, Fraction(1, 2), Fraction(1, 3)]


def test_compose_with_zero():
    e = Series.x(4).exp()
    assert compose(e, Series.zero(4)) == Series.one(4)


def test_compose_requires_zero_constant():
    with pytest.raises(BadConstantTerm):
        compose(Series([1, 1], 2), Series([1, 1], 2))


# -- tree equation and inversion -------------------------------------------------


def fixed_point_tree(psi: Series, order: int) -> Series:
    """Independent oracle: iterate T <- x psi(T), one correct order per pass."""
    t = Series.zero(order)
    for _ in range(order + 1):
        t = (compose(Series(psi.coefficients, order), t) * Series.x(order)).truncate(order)
    return t


def test_tree_constant_psi():
    assert newton_solve_tree(Series([1], 4)) == Series([0, 1], 5)


def test_tree_path_like():
    # psi = 1 + t gives T = x/(1-x)
    t = newton_solve_tree(Series([1, 1], 5))
    assert t == fixed_point_tree(Series([1, 1], 6), 6)
    assert list(t.coefficients) == [0, 1, 1, 1, 1, 1, 1]


def test_tree_catalan_like():
    # psi = 1/(1-t) gives the series counting plane trees: 1, 1, 2, 5, 14
    psi = Series([1, -1], 5).pow_rational(-1)
    t = newton_solve_tree(psi)
    assert t == fixed_point_tree(Series(psi.coefficients, 6), 6)
    assert list(t.coefficients) == [0, 1, 1, 2, 5, 14, 42]


def test_tree_satisfies_equation_exactly():
    psi = Series([1, Fraction(1, 3), Fraction(-1, 12), Fraction(1, 5), 2, -1], 5)
    t = newton_solve_tree(psi)
    residue = t - compose(Series(psi.coefficients, 5), t.truncate(5)).shift_up(1)
    assert not any(residue.coefficients)


@settings(max_examples=30, deadline=None)
@given(series_strategy(order=7))
def test_tree_equation_random_psi(psi_tail):
    psi = Series([1] + list(psi_tail.coefficients[1:]), 7)
    t = newton_solve_tree(psi)
    residue = t - compose(Series(psi.coefficients, 7), t.truncate(7)).shift_up(1)
    assert not any(residue.coefficients)


def test_lagrange_identity_trivial():
    # p = 1: (1/1) [s^0] H' psi = H'(0) psi(0) = -q
    for q in range(6):
        assert u_pq_lagrange(1, q) == -q


def test_lagrange_matches_tree_composition():
    # Lagrange's theorem for H = (1+s)^(-q): the inversion route equals
    # [s^p] H(T(s)), with H(T) composed by Horner on the solved tree series
    order = 10
    tree = newton_solve_tree(expansion_psi(order - 1))
    for q in range(9):
        h_of_t = compose(Series([1, 1], order).pow_rational(-q), tree)
        for p in range(1, order + 1):
            assert u_pq_lagrange(p, q) == h_of_t[p], (p, q)


# -- scalars -----------------------------------------------------------------------


def test_double_factorial():
    assert double_factorial(-1) == 1
    assert double_factorial(5) == 15
    # oracle: (2n)! / (2^n n!) with 2n-1 = 9
    import math

    assert double_factorial(9) == math.factorial(10) // (2**5 * math.factorial(5)) == 945
    with pytest.raises(BadParity):
        double_factorial(4)
    with pytest.raises(BadParity):
        double_factorial(-3)


def test_rational_serialization():
    assert rational_str(Fraction(-71, 18)) == "-71/18"
    assert rational_str(Fraction(4, 2)) == "2"
    assert Fraction(rational_str(Fraction(-71, 18))) == Fraction(-71, 18)
    assert Fraction(rational_str(Fraction(7))) == 7


# the integer-valued functions of math; every other math name is a float
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def float_uses(source: str) -> list[str]:
    """The floating-point uses in Python source: float literals, float()
    calls, float-valued math names and mpmath or decimal imports."""
    import ast

    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "float":
                found.append(f"{where}: float()")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr not in EXACT_MATH:
                found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:  # a relative "from . import x" has no module
                modules = [node.module or ""]
            found += [
                f"{where}: imports {m}" for m in modules if m.split(".")[0] in ("mpmath", "decimal")
            ]
            if modules == ["math"] and isinstance(node, ast.ImportFrom):
                found += [f"{where}: math.{a.name}" for a in node.names if a.name not in EXACT_MATH]
    return found


def test_no_floating_point_in_exact_modules():
    # no module of the package touches floats, the residual harness and the
    # CLI included: every value is an int, a Fraction, an MPoly or a residual
    # Cell (an integer numerator over a power of two)
    from pathlib import Path

    import regasym

    bad = (
        "x = 0.5\ny = float(3)\nz = math.sqrt(2) + math.pi\n"
        "from math import exp, isqrt\nimport mpmath\nfrom decimal import Decimal\n"
    )
    assert len(float_uses(bad)) == 7
    assert float_uses("import math\nx = math.isqrt(8) + math.comb(4, 2)\n") == []
    paths = sorted(Path(regasym.__file__).parent.glob("*.py"))
    assert {"cli.py", "validation.py", "series.py"} <= {p.name for p in paths}
    for path in paths:
        assert float_uses(path.read_text()) == [], path.name



# The memos that measured traffic reuses, keyed by (module, name), with the
# hits / misses (or rebuilds) that earn each its place.
MEMO_ALLOW = {
    ("regular", "_TABLES"): "formal-k --r 3: 1 build for all 15 k; u 881 hits / 49 misses",
    ("counts", "_SWEEPS"): "5 hits / 1 miss on expand csg --k 6 --order 6: one sweep for every n",
}

MEMO_NAMES = {"cache", "lru_cache", "_longest", "_RunningPowers"}


def memo_uses(source: str) -> list[tuple[str, int]]:
    """The memos in Python source as (owner, line): every use of a name in
    MEMO_NAMES (a decorator, a call or a table) and every module-level name
    bound to an empty dict, list or set, which only a memo fills at run
    time.  The owner is the decorated definition, the enclosing definition
    or the assigned module-level name."""
    import ast

    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name  # its decorators included
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and owner is None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            owner = ", ".join(ast.unparse(t) for t in targets)
            value = node.value
            empty = (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, (ast.List, ast.Set)) and not value.elts
            )
            call = isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            if empty or (call and value.func.id in ("dict", "list", "set") and not value.args):
                found.append((owner, node.lineno))
        if isinstance(node, ast.Name) and node.id in MEMO_NAMES:
            found.append((owner, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr in MEMO_NAMES:
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_memos_only_where_traffic_reuses_them():
    # a memo that the traffic never hits is state for nothing: every memo in
    # the package is on the allow-list, and every entry of the list is used
    from pathlib import Path

    import regasym

    bad = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@cache\ndef a(): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef b(): pass\n"
        "c = lru_cache(maxsize=None)(len)\n_D = {}\n_E: list = []\nF = set()\n"
        "G = _RunningPowers(len)\n@_longest\ndef h(order): pass\n"
        "TABLE = {1: (2, 3)}\ndef i():\n    memo = {}\n    return memo\n"
    )
    assert [owner for owner, _ in memo_uses(bad)] == ["a", "b", "c", "_D", "_E", "F", "G", "h"]
    found = set()
    for path in sorted(Path(regasym.__file__).parent.glob("*.py")):
        found |= {(path.stem, owner) for owner, _ in memo_uses(path.read_text())}
    assert found == set(MEMO_ALLOW)


# Exact routes that live outside the package as test oracles, each in one home.
ORACLES = (
    "count_hadamard",
    "inner_bracket",
    "exponent_split",
    "assembled_factor",
    "stirling_transfer",
    "expand_hadamard",
    "expand_direct",
    "psi_from_phase",
    "factorial_phase",
    "compose",
    "fraction_residuals",
)


def test_oracles_have_one_home_outside_the_package():
    # a fork is an old copy kept beside a moved one: each oracle is defined
    # exactly once in the repository, never under src/, and the package
    # imports nothing from tests/ or scripts/
    import ast
    from pathlib import Path

    repo = Path(__file__).resolve().parent.parent
    homes = {name: [] for name in ORACLES}
    for path in sorted(repo.rglob("*.py")):
        rel = path.relative_to(repo)
        if any(part.startswith(".") for part in rel.parts):  # .git, tool caches
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in homes:
                homes[node.name].append(rel)
    for name, where in homes.items():
        assert len(where) == 1 and where[0].parts[0] != "src", (name, where)
    # the kernel composes nothing and divides nothing: each fixed inner
    # series is read by its closed form
    assert not hasattr(Series, "compose") and not hasattr(Series, "__truediv__")

    outside = {"tests", "scripts", "conftest"}
    outside |= {p.stem for folder in ("tests", "scripts") for p in (repo / folder).glob("*.py")}
    for path in sorted((repo / "src" / "regasym").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            assert not {m.split(".")[0] for m in modules} & outside, (path.name, modules)


def test_no_bare_assert_in_package():
    # python -O strips assert statements, so a correctness check written as
    # one would silently vanish; checks raise named errors instead
    import ast
    from pathlib import Path

    import regasym

    package = Path(regasym.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: bare assert on lines {lines}"


def test_every_package_definition_has_a_caller():
    # a top-level function or class, or a public method of a package class,
    # that nothing in the package references is dead code, unless its
    # docstring keeps it as an independent oracle
    import ast
    from pathlib import Path

    import regasym

    trees = [ast.parse(path.read_text()) for path in Path(regasym.__file__).parent.glob("*.py")]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    definitions = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.append(node)
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    item
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    unused = [
        node.name
        for node in definitions
        if node.name not in used and "oracle" not in (ast.get_docstring(node) or "")
    ]
    assert not unused, f"no caller in the package: {sorted(unused)}"


def test_every_module_level_name_is_read():
    # a module-level constant or alias that nothing in the package or the
    # scripts reads is dead; dunder names are read by Python itself
    import ast
    from pathlib import Path

    import regasym

    repo = Path(__file__).resolve().parent.parent
    paths = [*Path(regasym.__file__).parent.glob("*.py"), *(repo / "scripts").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            unread += [
                f"{path.name}:{name}"
                for name in names
                if name not in read and not (name.startswith("__") and name.endswith("__"))
            ]
    assert not unread, f"assigned at module level and never read: {sorted(unread)}"
