"""The kit's frozen records (``mesoc_kit._record.record``) keep what the
frozen dataclasses they replaced gave: positional and keyword constructors,
defaults and fresh default dicts, the ``repr`` text, equality, hashing,
immutability, copies and pickles, and every ``__post_init__`` refusal."""

import copy
import pickle

import numpy as np
import pytest

from mesoc_kit import cones, lyapunov, micp_solver, order
from mesoc_kit.errors import DimensionError

_FIELD = micp_solver.ScalarField([1.0], 0.5, -1.0)
_COMBO = micp_solver.ScalarComboMap(1, 1, (_FIELD,), [[1.0, 0.0]])
_PAIR = order.OrderedPairSample(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
_ISO = order.IsotonicityReport(cones.mesoc(1, 1), 3, ())
_COMBO_TEXT = ("ScalarComboMap(p=1, q=1, fields=(ScalarField(linear=array([1.]), norm_coeff=0.5, "
               "offset=-1.0),), directions=array([[1., 0.]]))")
_ISO_TEXT = "IsotonicityReport(cone=ConeSpec(kind='mesoc', p=1, q=1, inner=None), checked=3, violations=())"

# (record, every field in order, how many are required, repr of the full
# record, repr of the record built from the required fields alone); the
# texts are those of the dataclasses
RECORDS = [
    (cones.ConeSpec, ("mesoc", 2, 2, None), 2,
     "ConeSpec(kind='mesoc', p=2, q=2, inner=None)", "ConeSpec(kind='mesoc', p=2, q=0, inner=None)"),
    (cones.PartitionedVector, ([1.0, 2.0], 0.5), 2,
     "PartitionedVector(x=array([1., 2.]), u=array([0.5]))", None),
    (cones.CompPair, ([1.0, 2.0], (0.5,)), 2, "CompPair(primal=[1.0, 2.0], dual=(0.5,))", None),
    (cones.ComplementarityReport, (True, {"orthogonality": -0.0}, ("a",)), 1,
     "ComplementarityReport(member=True, residuals={'orthogonality': -0.0}, failed=('a',))",
     "ComplementarityReport(member=True, residuals={}, failed=())"),
    (cones.Decomposition, ((("ray", 0, 1, 1),), np.array([1.0, 2.0]), np.array([[1.0, 0.0]])), 3,
     "Decomposition(factors=(('ray', 0, 1, 1),), image=array([1., 2.]), "
     "summands=array([[1., 0.]]))", None),
    (micp_solver.ScalarField, ([1], 0.5, -1.0), 3,
     "ScalarField(linear=array([1.]), norm_coeff=0.5, offset=-1.0)", None),
    (micp_solver.ScalarComboMap, (1, 1, (_FIELD,), [[1, 0]]), 4, _COMBO_TEXT, None),
    (micp_solver.AffineMap, (1, 1, [[1, 0], [0, 1]], [0, 0]), 4,
     "AffineMap(p=1, q=1, matrix=array([[1., 0.],\n       [0., 1.]]), offset=array([0., 0.]))", None),
    (micp_solver.MicpInstance, (_COMBO, cones.nonneg_orthant(1), [0, 1], 7, 1e-9), 2,
     f"MicpInstance(map={_COMBO_TEXT}, inner=ConeSpec(kind='nonneg_orthant', p=1, q=0, inner=None), "
     "start=array([0., 1.]), max_iter=7, conv_tol=1e-09)",
     f"MicpInstance(map={_COMBO_TEXT}, inner=ConeSpec(kind='nonneg_orthant', p=1, q=0, inner=None), "
     "start=array([0., 0.]), max_iter=2000, conv_tol=1e-12)"),
    (micp_solver.SolutionReport, (True, 0.0, 1.0, 2.0, 0.0, ()), 6,
     "SolutionReport(ok=True, g_norm=0.0, inner_slack=1.0, dual_slack=2.0, orthogonality=0.0, "
     "failed=())", None),
    (micp_solver.RegionReport, (True, False, ("x",), {"k": 1}), 3,
     "RegionReport(in_feasible=True, in_descent=False, reasons=('x',), details={'k': 1})",
     "RegionReport(in_feasible=True, in_descent=False, reasons=('x',), details={})"),
    (micp_solver.PreconditionReport, (True, np.array([1.0, 2.0]), _ISO), 3,
     f"PreconditionReport(start_ascending=True, first_step=array([1., 2.]), isotone={_ISO_TEXT})", None),
    (order.OrderedPairSample, (np.array([0.0]), np.array([1.0])), 2,
     "OrderedPairSample(lo=array([0.]), hi=array([1.]))", None),
    (order.IsotonicityViolation, (_PAIR, np.array([1.0, 2.0]), 1, -0.5), 4,
     "IsotonicityViolation(pair=OrderedPairSample(lo=array([0., 1.]), hi=array([1., 1.])), "
     "image_diff=array([1., 2.]), failed_inequality=1, margin=-0.5)", None),
    (order.IsotonicityReport, (cones.mesoc(1, 1), 3, ()), 3, _ISO_TEXT, None),
    (lyapunov.LyapMatrix, (np.eye(2), {"diag": 1.0}), 1,
     "LyapMatrix(entries=array([[1., 0.],\n       [0., 1.]]), params={'diag': 1.0})",
     "LyapMatrix(entries=array([[1., 0.],\n       [0., 1.]]), params={})"),
    (lyapunov.LyapCheck, (True, 5, 1e-12, None), 4,
     "LyapCheck(ok=True, checked=5, max_residual=1e-12, witness=None)", None),
    (lyapunov.LyapRankResult, (7, 4, 800, 1e9), 4,
     "LyapRankResult(rank=7, matrix_dim=4, n_pairs=800, singular_gap=1000000000.0)", None),
]


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


def test_every_record_is_listed():
    found = {cls for module in (cones, lyapunov, micp_solver, order)
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             and "__match_args__" in vars(cls)}
    assert found == {cls for cls, *_ in RECORDS} and len(found) == 18


@pytest.mark.parametrize("cls,args,required,text,short_text", RECORDS,
                         ids=[cls.__name__ for cls, *_ in RECORDS])
def test_record_keeps_its_dataclass_behaviour(cls, args, required, text, short_text):
    names = cls.__match_args__
    assert len(names) == len(args)
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    mixed = cls(*args[:1], **dict(zip(names[1:], args[1:])))
    assert repr(by_position) == repr(by_keyword) == repr(mixed) == text
    # the fields left out take their defaults; a default dict is new each time
    short, again = cls(*args[:required]), cls(**dict(zip(names[:required], args)))
    assert repr(short) == repr(again) == (short_text or text)
    for name in names[required:]:
        if isinstance(getattr(short, name), dict):
            assert getattr(short, name) == {} and getattr(short, name) is not getattr(again, name)
    # a call the dataclass refused
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args[: required - 1])
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args[:1], **{names[0]: args[0]})
    # equal records of one class hash alike and find each other as dict keys;
    # a record holding an array or a dict is unhashable, as before
    if _hashable(getattr(by_position, name) for name in names):
        assert by_position == by_keyword and not by_position != by_keyword
        assert hash(by_position) == hash(by_keyword) == hash(tuple(args))
        assert {by_position: 1}[by_keyword] == 1
    else:
        with pytest.raises(TypeError):
            hash(by_position)
    assert by_position == by_position and by_position != args
    # immutable: no field is written or deleted, nor any other name
    for name in (*names, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    assert repr(by_position) == text
    # copies and pickles restore the fields without __setattr__
    for clone in (copy.copy(by_position), copy.deepcopy(by_position),
                  pickle.loads(pickle.dumps(by_position))):
        assert type(clone) is cls and repr(clone) == text


@pytest.mark.parametrize("build,error,match", [
    (lambda: cones.ConeSpec("nope", 1), ValueError, "unknown cone kind"),
    (lambda: cones.ConeSpec("mesoc", 0, 1), ValueError, "strictly positive"),
    (lambda: cones.ConeSpec("mesoc", 1, -1), ValueError, "nonempty base"),
    (lambda: cones.ConeSpec("cylinder", 1, 0), ValueError, "nonempty base"),
    (lambda: cones.ConeSpec("monotone", 2, 1), ValueError, "has no u block"),
    (lambda: cones.ConeSpec("cylinder", 1, 2), ValueError, "require an inner cone"),
    (lambda: cones.ConeSpec("cylinder", 1, 3, cones.monotone(2)), DimensionError, "does not match"),
    (lambda: cones.ConeSpec("mesoc", 1, 1, cones.monotone(1)), ValueError, "does not take an inner"),
    (lambda: cones.PartitionedVector(np.ones((2, 2)), [1.0]), DimensionError, "one-dimensional"),
    (lambda: cones.PartitionedVector([np.nan], [1.0]), ValueError, "finite"),
    (lambda: micp_solver.ScalarComboMap(1, 1, (_FIELD,), [[1.0, 0.0, 0.0]]), DimensionError,
     "directions must be 1 x 2"),
    (lambda: micp_solver.ScalarComboMap(2, 0, (_FIELD,), [[1.0, 0.0]]), DimensionError, "length p"),
    (lambda: micp_solver.AffineMap(1, 1, np.eye(3), np.zeros(2)), DimensionError, "affine map blocks"),
    (lambda: micp_solver.MicpInstance(_COMBO, cones.nonneg_orthant(1), conv_tol=np.nan), ValueError,
     "tolerance"),
    (lambda: micp_solver.MicpInstance(_COMBO, cones.nonneg_orthant(1), max_iter=-1), ValueError,
     "max_iter"),
    (lambda: micp_solver.MicpInstance(_COMBO, cones.nonneg_orthant(2)), DimensionError,
     "inner cone dimension"),
    (lambda: micp_solver.MicpInstance(_COMBO, cones.nonneg_orthant(1), [0.0]), DimensionError,
     "expected a vector of length 2"),
])
def test_record_refusals_are_unchanged(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_records_built_around_init():
    # _split writes its views with object.__setattr__ on an object.__new__
    # instance, and MicpInstance caches order_cone in its instance __dict__
    z = np.arange(3.0)
    pv = cones.PartitionedVector._split(z, 1)
    assert np.shares_memory(pv.x, z) and pv.u.tolist() == [1.0, 2.0]
    with pytest.raises(AttributeError):
        pv.x = z
    inst = micp_solver.MicpInstance(_COMBO, cones.nonneg_orthant(1))
    assert inst.order_cone is inst.order_cone == cones.mesoc(1, 1)
    assert vars(inst)["order_cone"] is inst.order_cone


def test_records_that_differ_in_a_field_are_unequal():
    assert cones.mesoc(2, 2) != cones.mesoc(2, 3) and not cones.mesoc(2, 2) == cones.mesoc(2, 3)
    assert cones.mesoc(2, 2) != cones.mesoc_dual(2, 2)
    assert cones.cylinder(1, cones.lorentz(2)) != cones.cylinder(1, cones.nonneg_orthant(2))
    assert lyapunov.LyapRankResult(7, 4, 800, 1e9) != lyapunov.LyapRankResult(7, 4, 800, 2e9)
    assert len({cones.mesoc(2, 2), cones.mesoc(2, 3), cones.mesoc(2, 2)}) == 2
