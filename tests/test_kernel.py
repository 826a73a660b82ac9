"""The per-descriptor kernel: pinned random draws, shape-check messages,
one compile per descriptor object, and the double() witness."""

import ast
import collections
import functools
import gc
import hashlib
import importlib
import inspect
import pkgutil
import random
import weakref

import pytest

import lexiring
from lexiring import descriptors as D
from lexiring import ops
from lexiring.descriptors import BarInsert, Base, Insert, facts, parse_struct
from lexiring.errors import LexiringError, ShapeError
from lexiring.kernel import kernel_of
from lexiring.laws import (
    LAW_STRUCTURES,
    nonzero_value,
    random_measure,
    random_prob_scene,
    random_tree_edges,
    random_value,
    random_weight_system,
)
from lexiring.values import TOP, ZERO, Pair, Scalar, Signed, check_value, parse_value
from lexiring.xreal import INF, XReal

DRAW_STRUCTURES = LAW_STRUCTURES + (
    "double(O)", "double(S)",
    "mixed(Z; -2..2; 0:P, 1:Nbar0, default:Rc)", "mixed(N0; ..3; 1:O, default:Rc)", "mixed(Z; ..; default:Ro)",
    r"N0 \/ (Rc \/ Ro)", r"(Nbar0 \/ N0) \/ Rc", r"N0 b\/ Rc", r"(N0 /\ Rc) \/ Ro", r"S /\ Rc",
)

# SHA-256 of the draws below, recorded with the generators that predate the kernel
DRAW_DIGEST = "40e57bc9b1682e5d4f17ed8c170b4fc3d5c57e9d5bfe32861c7fc73968568939"


def test_seeded_draws_are_pinned():
    h = hashlib.sha256()
    for i, text in enumerate(DRAW_STRUCTURES):
        d = parse_struct(text)
        rng = random.Random(1000 + i)
        for j in range(300):
            v = nonzero_value(rng, d) if j % 3 == 2 else random_value(rng, d)
            h.update(f"{text}|{v!r}\n".encode())
    assert h.hexdigest() == DRAW_DIGEST


# SHA-256 of the law suites' documents below and the rng state after them
DOCUMENT_DIGEST = "638bae0b42025ce22e0ac5a3bf503659f7dfb561263428087052dd15b040edfe"


def test_law_suite_documents_are_pinned():
    h = hashlib.sha256()
    for seed in range(60):
        rng = random.Random(seed)
        m = random_measure(rng)
        p = random_prob_scene(rng)
        nodes, edges = random_tree_edges(rng, 2 + seed % 11)
        g, w, c = random_weight_system(rng)
        for doc in (list(m.atom_values.items()), list(p.atom_values.items()), nodes, edges,
                    g.sectors, g.switches, list(w.weights.items()), list(c.crossings.items()), rng.getstate()):
            h.update(f"{doc!r}\n".encode())
    assert h.hexdigest() == DOCUMENT_DIGEST


def test_gappy_mixed_range_draws_only_levels_with_a_structure():
    d = parse_struct("mixed(N0; 0..2; 0:Rc)")
    rng = random.Random(1)
    draws = [random_value(rng, d) for _ in range(200)]
    assert {v.level.x for v in draws if v is not ZERO} == {0}
    for v in draws:
        check_value(d, v)
    gappy = parse_struct("mixed(Z; -2..2; -2:Rc, 2:Ro)")
    assert {nonzero_value(rng, gappy).level.x for _ in range(100)} == {-2, 2}
    naturals = parse_struct("mixed(N0; -2..2; default:Rc)")
    assert {nonzero_value(rng, naturals).level.x for _ in range(100)} == {0, 1, 2}


@pytest.mark.parametrize("text", ["mixed(Z; -1000000000..1000000000; default:Rc)",
                                  "mixed(Z; -1000000000..1000000000; 7:Rc, -7:Ro)"])
def test_wide_mixed_range_compiles_without_walking_it(text):
    d = parse_struct(text)
    x, y = parse_value(d, "(7, 2)"), parse_value(d, "(-7, 3)")
    assert ops.cmp(d, x, y) > 0 and ops.add(d, x, y) == x
    rng = random.Random(5)
    for _ in range(50):
        check_value(d, nonzero_value(rng, d))


N0, NBAR0, RO = Base("N0"), Base("Nbar0"), Base("Ro")
O, S = parse_struct("O"), parse_struct(r"N0 \/ Rc")
MIXED = parse_struct("mixed(N0; 0..2; 0:Rc, default:O)")
DOUBLE = parse_struct("double(O)")
OK_MAG = Pair(Scalar(1), Scalar(XReal(1)))

SHAPE_FAULTS = [
    (N0, Scalar(-1), "negative value -1 in N0"),
    (N0, Pair(Scalar(0), Scalar(1)), "expected a N0 scalar, got (0,1)"),
    (Base("Z"), Scalar(XReal(1, 2)), "Z values are integers, got 1/2"),
    (RO, Scalar(INF), "inf does not belong to [0,inf)"),
    (Base("Rc"), Scalar(1), "Rc values are extended rationals, got 1"),
    (NBAR0, Scalar(XReal(3, 2)), "3/2 is not a natural number or inf"),
    (O, TOP, "top only exists in bar structures"),
    (S, TOP, "top only exists in bar structures"),
    (S, ZERO, "expected a pair, got 0"),
    (O, Scalar(1), "expected a pair or 0, got 1"),
    (O, Pair(Scalar(1), Scalar(XReal(0))), "residue of (1,0) is the zero of Rc; insertion removes it"),
    (MIXED, Pair(Scalar(XReal(1)), Scalar(XReal(1))), "mixed insertion level must be an integer, got 1"),
    (MIXED, Pair(Scalar(5), Scalar(XReal(1))), "level 5 lies outside the mixed insertion range"),
    (MIXED, Pair(Scalar(0), Scalar(XReal(0))), "residue is the zero of its level structure"),
    (MIXED, Pair(Scalar(1), Scalar(XReal(1))), "expected a pair or 0, got 1"),
    (DOUBLE, OK_MAG, "expected a signed value or 0, got (1,1)"),
    (DOUBLE, Signed(2, OK_MAG), "bad sign 2"),
    (DOUBLE, Signed(-1, ZERO), "signed magnitude must be nonzero"),
    (MIXED, Scalar(1), "expected a pair or 0, got 1"),
]


@pytest.mark.parametrize("d, v, message", SHAPE_FAULTS)
def test_check_value_fault_messages(d, v, message):
    with pytest.raises(ShapeError) as exc:
        check_value(d, v)
    assert str(exc.value) == message


def test_well_shaped_values_pass_through_check():
    for d, v in [(N0, Scalar(0)), (NBAR0, Scalar(INF)), (parse_struct("Obar"), TOP), (S, Pair(Scalar(0), Scalar(XReal(0)))),
                 (MIXED, Pair(Scalar(2), OK_MAG)), (DOUBLE, Signed(-1, OK_MAG))]:
        assert check_value(d, v) is v


def test_kernel_is_compiled_once_per_descriptor_object(monkeypatch):
    from lexiring import kernel

    compiled = []
    real_compile = kernel._compile
    monkeypatch.setattr(kernel, "_compile", lambda d: compiled.append(d) or real_compile(d))
    d = Insert(Base("Z"), Base("Ro"))
    x, y = parse_value(d, "(1,2)"), parse_value(d, "(0,1/3)")
    for _ in range(5):
        ops.add(d, x, y)
        ops.mul(d, x, y)
        ops.cmp(d, x, y)
        random_value(random.Random(0), d)
    assert len(compiled) == 3  # d and its two bases
    k = kernel.kernel_of(d)
    assert kernel.kernel_of(d) is k
    assert kernel.kernel_of(Insert(d.a, d.b)) is not k  # an equal descriptor object compiles its own
    assert (k.semiring, k.semifield, k.int_levels, k.prob_depth) == (True, True, True, 1)


@pytest.mark.parametrize("text", ["P", "Pn(2)", "double(O)", "mixed(Z; -2..2; 0:P, default:Rc)"])
def test_dropped_descriptor_is_freed_with_its_kernel(text):
    d = parse_struct(text)
    nonzero_value(random.Random(0), d)
    ops.cmp(d, ZERO, ZERO)
    ref = weakref.ref(d)
    # no reference cycle through the kernel: the descriptor goes at once, without a collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        del d
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_capability_flags():
    from lexiring.kernel import kernel_of

    assert kernel_of(parse_struct("Pn(3)")).prob_depth == 3
    assert kernel_of(parse_struct(r"Z /\ (N0 /\ Ro)")).prob_depth is None
    assert kernel_of(parse_struct("Obar")).prob_depth is None
    assert kernel_of(BarInsert(N0, RO)).int_levels
    assert not kernel_of(parse_struct(r"Nbar0 /\ Rc")).int_levels
    assert not kernel_of(parse_struct("mixed(Z; 0..1; default:Rc)")).int_levels
    assert not kernel_of(parse_struct(r"N0 \/ Rc")).semiring
    assert kernel_of(parse_struct("O")).semiring and not kernel_of(parse_struct("O")).semifield


def test_shift_checks_the_new_level():
    d = parse_struct("S")
    assert ops.shift(d, parse_value(d, "(1,2)"), 2) == parse_value(d, "(3,2)")
    with pytest.raises(ShapeError, match="negative value -1 in N0"):
        ops.shift(d, parse_value(d, "(1,2)"), -2)
    with pytest.raises(ShapeError, match="top level is not an integer"):
        ops.shift(parse_struct(r"Nbar0 /\ Rc"), parse_value(parse_struct(r"Nbar0 /\ Rc"), "(1,2)"), 1)


def test_double_addition_is_not_associative():
    d = DOUBLE
    a, b, c = parse_value(d, "(0,1)"), parse_value(d, "-(0,1)"), parse_value(d, "(-1,1)")
    assert ops.double_add(d, ops.double_add(d, a, b), c) == c
    assert ops.double_add(d, a, ops.double_add(d, b, c)) == ZERO


SUM_STRUCTURES = LAW_STRUCTURES + (
    "N0", "Z", "Rc", "Ro", "Nbar0", "Sbar", "Pn(3)",
    r"N0 \/ (Rc \/ Ro)", r"(Nbar0 \/ N0) \/ Rc", r"N0 b\/ Rc", r"(N0 /\ Rc) \/ Ro", r"S /\ Rc", r"Obar b/\ Rc",
    "mixed(Z; -2..2; 0:P, 1:Nbar0, default:Rc)", "mixed(N0; ..3; 1:O, default:Rc)", "double(O)", "double(S)",
)


def _ordered_fold(d, values):
    acc = ops.zero(d)
    for v in values:
        acc = kernel_of(d).add(acc, v)
    return acc


@pytest.mark.parametrize("text", SUM_STRUCTURES)
def test_sum_equals_the_ordered_fold_of_add(text):
    from lexiring.kernel import kernel_of

    d = parse_struct(text)
    k = kernel_of(d)
    assert k.sum([]) is k.zero
    rng = random.Random(f"sum/{text}")
    for _ in range(80):
        values = [random_value(rng, d) for _ in range(rng.randrange(41))]
        assert k.sum(values) == _ordered_fold(d, values), values


@pytest.mark.parametrize("text, literals, expected", [
    ("Obar", ["(0,1)", "top", "(5,inf)", "0"], "top"),  # top absorbs, wherever it stands
    ("Obar", ["0", "0"], "0"),
    ("O", ["(1,2)", "(1,inf)", "(2,1/3)", "(2,1/6)", "(0,inf)"], "(2,1/2)"),
    ("O", ["(1,2)", "(1,inf)", "(0,inf)"], "(1,inf)"),  # an inf residue at the dominant level
    ("Rc", ["1/2", "inf", "1/3"], "inf"),
    ("Nbar0", ["2", "0", "3"], "5"),
    (r"N0 \/ (Rc \/ Ro)", ["(0,(0,0))", "(0,(0,0))"], "(0,(0,0))"),  # a full s-insertion keeps its zero pair
    (r"N0 \/ (Rc \/ Ro)", ["(0,(0,1))", "(2,(inf,1/2))", "(2,(inf,1/3))", "(1,(3,3))"], "(2,(inf,5/6))"),
    ("mixed(Z; -2..2; 0:P, 1:Nbar0, default:Rc)", ["(0,(3,1/2))", "(1,2)", "(1,inf)", "(-2,1)"], "(1,inf)"),
    ("mixed(Z; -2..2; 0:P, 1:Nbar0, default:Rc)", ["(0,(3,1/2))", "(0,(4,1/5))", "(0,(4,1/5))"], "(0,(4,2/5))"),
    ("Pn(2)", ["(0,(0,1/4))", "(0,(-1,1/2))", "(0,(0,1/4))", "(-1,(5,1))"], "(0,(0,1/2))"),
])
def test_sum_at_tops_zeros_and_infinite_residues(text, literals, expected):
    from lexiring.kernel import kernel_of

    d = parse_struct(text)
    values = [parse_value(d, t) for t in literals]
    assert kernel_of(d).sum(values) == parse_value(d, expected) == _ordered_fold(d, values)


def test_double_sum_keeps_the_order_of_its_terms():
    from lexiring.kernel import kernel_of

    d = DOUBLE
    a, b, c = parse_value(d, "(0,1)"), parse_value(d, "-(0,1)"), parse_value(d, "(-1,1)")
    # ((a + b) + c) == c, while a + (b + c) == 0: the sum is the ordered left fold
    assert kernel_of(d).sum([a, b, c]) == c
    assert kernel_of(d).sum([b, c, a]) == ops.double_add(d, ops.double_add(d, b, c), a) == ZERO


PROD_STRUCTURES = [text for text in SUM_STRUCTURES if facts(parse_struct(text)).semiring]


def _ordered_product(d, values):
    return functools.reduce(kernel_of(d).mul, values)


@pytest.mark.parametrize("text", PROD_STRUCTURES)
def test_prod_equals_the_ordered_fold_of_mul(text):
    from lexiring.kernel import kernel_of

    d = parse_struct(text)
    k = kernel_of(d)
    rng = random.Random(f"prod/{text}")
    for _ in range(80):
        values = [random_value(rng, d) for _ in range(rng.randrange(1, 41))]
        assert k.prod(values) == _ordered_product(d, values), values


@pytest.mark.parametrize("text, literals, expected", [
    ("Obar", ["(0,1)", "top", "(5,inf)"], "top"),
    ("Obar", ["(0,1)", "top", "0", "(5,inf)"], "0"),  # a zero factor wins over top, wherever it stands
    ("Obar", ["top", "(-2,1/2)", "0"], "0"),
    ("O", ["(1,2)", "(1,inf)", "(2,1/3)"], "(4,inf)"),
    ("Rc", ["1/2", "inf", "0", "3"], "0"),  # 0 * inf == 0
    ("Rc", ["1/2", "inf", "1/3"], "inf"),
    ("Ro", ["6/35", "7/4", "10/3"], "1"),  # the fraction is reduced once, at the end
    ("N0", ["3", "0", "5"], "0"),
    ("Nbar0", ["2", "inf", "3"], "inf"),
    ("Pn(2)", ["(0,(1,1/4))", "(-1,(-1,2))", "(3,(0,6))"], "(2,(0,3))"),
    (r"Obar b/\ Rc", ["(top,1/2)", "((0,1),2)", "((1,1/2),inf)"], "(top,inf)"),
    (r"Obar b/\ Rc", ["((0,1),2)", "top"], "top"),
    ("P", ["(3,5/7)"], "(3,5/7)"),
])
def test_prod_at_zeros_tops_and_infinite_residues(text, literals, expected):
    from lexiring.kernel import kernel_of

    d = parse_struct(text)
    values = [parse_value(d, t) for t in literals]
    assert kernel_of(d).prod(values) == parse_value(d, expected) == _ordered_product(d, values)


def test_structures_without_multiplication_have_no_prod():
    from lexiring.kernel import kernel_of

    for text in ("double(O)", "mixed(Z; -2..2; 0:P, default:Rc)"):
        assert kernel_of(parse_struct(text)).prod is None


# every module but the two that define and compile descriptors; importing __main__ would run the CLI
GUARDED_MODULES = sorted(m.name for m in pkgutil.iter_modules(lexiring.__path__)
                         if m.name not in ("kernel", "descriptors", "__main__"))


@pytest.mark.parametrize("module", GUARDED_MODULES)
def test_no_descriptor_dispatch_outside_the_kernel(module):
    """The module names no descriptor class and has no isinstance(d, ...): the kernel decides each kind once."""
    classes = {name for name, obj in vars(D).items() if isinstance(obj, type) and issubclass(obj, D.StructDesc)}
    tree = ast.parse(inspect.getsource(importlib.import_module(f"lexiring.{module}")))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & classes
    dispatches = [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance"
                  and getattr(n.args[0], "id", None) == "d"]
    assert not dispatches


def test_literals_and_inverses_have_no_second_dispatch():
    import lexiring.values

    assert not hasattr(ops, "_inv") and not hasattr(ops, "_neg_level")
    assert not hasattr(lexiring.values, "_ValueParser") and not hasattr(D.MixedInsert, "residue_desc")


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_below_draws_as_randrange(seed):
    from lexiring.kernel import _below

    sizes = list(range(1, 601)) + [2**k + e for k in range(1, 71) for e in (-1, 0, 1)]
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in sizes:
        assert _below(ours, n) == theirs.randrange(n), n
        assert ours.getstate() == theirs.getstate(), n


def test_a_gen_that_draws_only_zero_has_no_nonzero_value():
    from lexiring.kernel import _nonzero

    draws = []
    nonzero = _nonzero("Zeros", lambda rng, zero_p: draws.append(zero_p) or ZERO, lambda v: v is ZERO)
    with pytest.raises(AssertionError, match="could not generate a nonzero value of Zeros"):
        nonzero(random.Random(1))
    assert draws == [0.0] * 64


@pytest.mark.parametrize("text, a, b", [("Rc", "1/2", "2/4"), ("P", "(0,1/2)", "(0,2/4)"),
                                        ("double(P)", "-(0,1/2)", "-(0,2/4)")])
def test_equal_values_hash_alike(text, a, b):
    d = parse_struct(text)
    x, y = parse_value(d, a), parse_value(d, b)
    assert x is not y and x == y and hash(x) == hash(y)
    assert len({x, y}) == 1 and len({x, y, parse_value(d, "0")}) == 2


@pytest.mark.parametrize("module", ["kernel", "laws"])
def test_draws_do_not_go_through_randrange(module):
    """randrange re-checks its arguments on every draw; the kernel and the law suites draw through _below."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"lexiring.{module}")))
    calls = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "randrange"]
    assert not calls


# what a planted add that returns 0 on equal operands makes structure_laws(s, 42 + i, 400) report:
# the case number and the operands pin the order of the draws inside each suite
BROKEN_ADD_FAILURES = [
    "FAIL S: add_monotone (cases=152) -- (5,1/4),(5,1/4)",
    "FAIL S: distributive (cases=106) -- (3,inf),(2,11/7),(2,1)",
    "FAIL S: level_of_product (cases=3) -- (6,11/6),(6,inf)",
    "FAIL S: level_of_sum (cases=162) -- raised DomainError: level of zero is undefined",
    "FAIL O: add_monotone (cases=194) -- (1,1/2),(1,1/2)",
    "FAIL O: distributive (cases=214) -- (-3,inf),(2,inf),(2,5)",
    "FAIL O: level_of_product (cases=7) -- (-7,7/2),(-7,7/5)",
    "FAIL P: add_associative (cases=268) -- (-1,4),(5,2/5),(5,2/5)",
    "FAIL P: add_monotone (cases=305) -- (4,5/3),(4,5/3)",
    "FAIL P: level_of_product (cases=13) -- (-2,11/7),(-2,12/7)",
    "FAIL P: level_of_sum (cases=340) -- raised DomainError: level of zero is undefined",
    "FAIL Obar: add_associative (cases=363) -- (7,inf),(7,inf),(0,2/3)",
    "FAIL Obar: add_monotone (cases=38) -- top,top",
    "FAIL Obar: distributive (cases=83) -- top,(-3,12/5),(2,inf)",
    "FAIL Obar: level_of_product (cases=14) -- (-3,2/3),(-3,3)",
    "FAIL Obar: level_of_sum (cases=51) -- raised DomainError: level of zero is undefined",
    "FAIL Sn(2): add_associative (cases=73) -- top,top,(5,(5,inf))",
    "FAIL Sn(2): distributive (cases=3) -- top,(2,(0,4/3)),(5,(6,9/7))",
    "FAIL Sn(2): level_of_product (cases=34) -- (5,(1,11/4)),(5,(2,1/4))",
    "FAIL On(2): add_associative (cases=4) -- top,top,(-3,(3,inf))",
    "FAIL On(2): distributive (cases=43) -- top,(0,(-4,8/7)),(3,(7,4/7))",
    "FAIL On(2): level_of_product (cases=8) -- (0,(-6,3/2)),(0,top)",
    "FAIL Pn(2): level_of_product (cases=5) -- (-6,(-1,5/4)),(-6,(4,7/5))",
]


def test_law_case_stream_is_pinned(monkeypatch):
    from lexiring.laws import structure_laws

    real_add = ops.add

    def broken_add(d, x, y):
        out = real_add(d, x, y)
        return ZERO if x is not ZERO and y is not ZERO and x == y else out

    monkeypatch.setattr(ops, "add", broken_add)
    failures = [r.line() for i, s in enumerate(LAW_STRUCTURES) for r in structure_laws(s, 42 + i, 400) if not r.ok]
    assert failures == BROKEN_ADD_FAILURES


FUSED_STRUCTURES = LAW_STRUCTURES + (r"S /\ Rc", r"N0 b/\ Rc", r"Nbar0 b/\ N0")
R1 = Scalar(XReal(1))
ILL_SHAPED = [
    Pair(Scalar(-1), R1), Pair(Scalar(0), Scalar(INF)), Pair(Scalar(0), Scalar(XReal(0))), Pair(Scalar(1), Scalar(0)),
    Pair(Pair(Scalar(0), R1), R1), Pair(Scalar(0), Pair(Scalar(0), R1)), TOP, ZERO, Scalar(XReal(1)),
    Pair(Scalar(XReal(3, 2)), Scalar(1)), Pair(Scalar(XReal(2)), Scalar(XReal(3, 2))), Pair(Scalar(INF), Scalar(2)),
    Signed(1, Pair(Scalar(0), R1)), Pair(Signed(1, Scalar(0)), R1), Pair(Scalar(0), Signed(-1, R1)),
    Pair(Scalar(True), R1), Pair(Scalar(False), Scalar(True)), Pair(Scalar(0), Scalar(False)), Pair(Scalar(1), Scalar(1)),
    Pair(Scalar(XReal(1)), R1), Pair(Scalar(1.0), R1), Pair(Scalar(0), Scalar(1.5)), Pair(R1, Scalar(XReal(1, 0))),
    Pair(Scalar(2), Pair(Scalar(-1), R1)), Pair(Scalar(2), Pair(Scalar(1), TOP)), Pair(Scalar(2), ZERO),
]


def _verdict(check, v):
    try:
        return "ok", check(v)
    except Exception as exc:  # the class and message are compared, whatever they are
        return type(exc).__name__, str(exc)


def test_fused_check_agrees_with_the_composed_check(monkeypatch):
    """Where a pairing's parts are bases, its check accepts well-shaped pairs inline and hands everything else to
    the composed check: on the mutated literals and ill-shaped values below, both give the same verdict."""
    from test_cli import _mutations

    from lexiring import kernel
    from lexiring.descriptors import TokenStream

    fused = {text: kernel.kernel_of(parse_struct(text)).check for text in FUSED_STRUCTURES}
    monkeypatch.setattr(kernel, "_fused_check", lambda a, b, nonzero_b, composed: composed)
    composed = {text: kernel.kernel_of(parse_struct(text)).check for text in FUSED_STRUCTURES}
    def n_fused(checks):
        return sum(c.__qualname__.startswith("_fused_check") for c in checks.values())

    assert (n_fused(fused), n_fused(composed)) == (6, 0)  # every pairing of two bases is fused

    values = {text: list(ILL_SHAPED) for text in FUSED_STRUCTURES}
    for text, d, v, mutated in _mutations(random.Random(13), FUSED_STRUCTURES, 3000):
        values[text].append(v)
        try:
            values[text].append(kernel.kernel_of(d).read(TokenStream(mutated)))
        except LexiringError:
            pass
    verdicts = collections.Counter()
    for text in FUSED_STRUCTURES:
        for v in values[text]:
            got = _verdict(fused[text], v)
            assert got == _verdict(composed[text], v), (text, v)
            verdicts[got[0]] += 1
    assert verdicts["ok"] >= 3000 and verdicts["ShapeError"] >= 200, verdicts
