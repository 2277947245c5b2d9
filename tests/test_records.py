"""The value records are ``collections.namedtuple``s, subclassed with
empty ``__slots__`` where they carry a docstring or methods, so they
need neither dataclass code generation nor the ``typing`` module.  They
keep the immutability, value equality and defaults of the frozen
dataclasses they replaced, and the same reprs except where a record has
since dropped a field that echoed what its caller already holds: ``OrbitReport`` its family, bound and
element, ``CounterexampleReport`` its two length bounds and a0 size, and
``CounterexampleSetup`` its a0 size and ``u``, which is ``pres.u``."""

import pytest

from freegroups.closure import (
    AmalgamCertificate,
    CounterexampleSetup,
    HnnCertificate,
    build_counterexample,
    verify_counterexample,
)
from freegroups.endos import OrbitReport
from freegroups.splittings import AmalgamForm, BrittonForm, Check, ClassificationResult, Report
from freegroups.whitehead import MinimizationTrace, WhiteheadMove
from freegroups.words import Alphabet, parse_word

XY = Alphabet("x y")


def w(text):
    return parse_word(XY, text)


# One instance per record, with its pinned repr: what its frozen dataclass
# printed, less the fields a record has dropped since.
RECORDS = [
    (
        lambda: Check("u_root_free", True, "u = (u)^1"),
        "Check(name='u_root_free', passed=True, detail='u = (u)^1')",
    ),
    (
        lambda: BrittonForm(w("x y"), ((1, w("y^-1")), (-1, w("1")))),
        "BrittonForm(head=Word('x y'), tail=((1, Word('y^-1')), (-1, Word('1'))))",
    ),
    (
        lambda: ClassificationResult(True, 1, -2, w("x"), w("y x^-1"), w("y")),
        "ClassificationResult(solvable=True, case=1, p=-2, gamma=Word('x'), delta=Word('y x^-1'), s=Word('y'))",
    ),
    (
        lambda: AmalgamForm(((1, w("x^2")), (2, w("y")))),
        "AmalgamForm(syllables=((1, Word('x^2')), (2, Word('y'))))",
    ),
    (
        lambda: OrbitReport(4, None),
        "OrbitReport(distinct_count=4, first_collision=None)",
    ),
    (
        lambda: MinimizationTrace((w("x y x^-1"),), (w("y"),), (WhiteheadMove(XY, "permutation", (2, 1)),)),
        "MinimizationTrace(initial=(Word('x y x^-1'),), final=(Word('y'),), moves=(WhiteheadMove(perm: x->y, y->x),))",
    ),
    (
        lambda: AmalgamCertificate(XY, (w("x"),), (w("y"),), w("x y")),
        "AmalgamCertificate(ambient=Alphabet('x y'), b1=(Word('x'),), b2=(Word('y'),), c=Word('x y'))",
    ),
    (
        lambda: HnnCertificate(XY, (w("x"), w("y")), w("x"), w("y x y^-1")),
        "HnnCertificate(ambient=Alphabet('x y'), base=(Word('x'), Word('y')), u=Word('x'), v=Word('y x y^-1'))",
    ),
    (
        lambda: build_counterexample(0),
        "CounterexampleSetup(h_alphabet=Alphabet('a b u y'), a_names=('a', 'b', 'u'), "
        "pres=HnnPresentation(<H, t | u^t = a y b y a y^-1 b y^-1>), "
        "v=Word('a y b y a y^-1 b y^-1'), d=Word('a y^-1 b y^-1'), y=Word('y'), "
        "g=Endomorphism(a->a, b->b, u->u, y->y^-1, t->t y b^-1 y a^-1), "
        "g_inv=Endomorphism(a->a, b->b, u->u, y->y^-1, t->t a y b y), "
        "g_base=Endomorphism(a->a, b->b, u->u, y->y^-1))",
    ),
    (
        lambda: Report((Check("u_root_free", True, "u = (u)^1"), Check("v_root_free", False, "v = (x)^2"))),
        "Report(checks=(Check(name='u_root_free', passed=True, detail='u = (u)^1'), "
        "Check(name='v_root_free', passed=False, detail='v = (x)^2')))",
    ),
    (
        lambda: verify_counterexample(0, 3),
        "CounterexampleReport(checks=("
        "Check(name='presentation_valid', passed=True, detail='u, v root-free and non-conjugate'), "
        "Check(name='abelianization_obstruction_ok', passed=True, detail='ab(v) = (2, 2, 0, 0) != ab(u) = (0, 0, 1, 0)'), "
        "Check(name='g_is_homomorphism', passed=True, detail='g(t)^-1 u g(t) = g(v) in the extension'), "
        "Check(name='g_is_automorphism', passed=True, detail='explicit inverse sends t to t a y b y'), "
        "Check(name='gv_conjugate_to_v', passed=True, detail='g(v) = d v d^-1 with d = a y^-1 b y^-1'), "
        "Check(name='solution_set', passed=True, detail='solutions up to length 3: {y, y^-1}'), "
        "Check(name='dcl_separation_ok', passed=True, "
        "detail='no fixed word at any length (exact: g permutes letters and fixes no generator outside A)')), "
        "solutions=(Word('y'), Word('y^-1')))",
    ),
]
IDS = [expected.split("(", 1)[0] for _, expected in RECORDS]


@pytest.mark.parametrize("make, expected", RECORDS, ids=IDS)
def test_repr_is_unchanged(make, expected):
    assert repr(make()) == expected


@pytest.mark.parametrize("make, expected", RECORDS, ids=IDS)
def test_records_are_immutable(make, expected):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, type(record)._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("make, expected", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(make, expected):
    first, second = make(), make()
    assert first is not second and first == second
    if isinstance(first, CounterexampleSetup):
        # Its maps define __eq__ without __hash__, as under the dataclass.
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


def test_counterexample_report_looks_up_checks():
    report = verify_counterexample(0, 3)
    assert report.check("solution_set") == report.checks[5]
    with pytest.raises(KeyError):
        report.check("missing")


def test_defaults_are_kept():
    assert BrittonForm(w("x")).tail == ()
    result = ClassificationResult(False)
    assert not result.solvable
    assert (result.case, result.p, result.gamma, result.delta, result.s) == (None,) * 5
