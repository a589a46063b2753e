"""The value records: construction, `==`, hash, repr, immutability and
the construction checks of each immutable record class."""

import copy
import pickle
from math import inf

import pytest

from knotfloer.cfk import CfkFile, parse_cfk, render_cfk
from knotfloer.complexes import (Complex, Generator, ValidationReport,
                                 quotient)
from knotfloer.errors import StructuralError
from knotfloer.homology import FUDecomp, HatRanks
from knotfloer.knotlib import build_cable, build_unknot
from knotfloer.localequiv import (DEFAULT_BUDGET, LocalCertificate,
                                  LocalSearchSpec, NonexistenceToken,
                                  search_local_map)
from knotfloer.morphism import (IotaData, IotaReport, LinMap, MapSpace,
                                _SquareSystem, enumerate_almost_iotas,
                                identity_map, validate_iota)
from knotfloer.ring import Ideal, Mono

K2 = build_cable(2)
UNKNOT = build_unknot()
IOTAS = enumerate_almost_iotas(K2)
SPACE = MapSpace.build(K2, K2, "skew", (0, 0), K2.ring)
SPACE2 = MapSpace.build(K2, K2, "eq", (0, 0), K2.ring)
TOKEN = NonexistenceToken(4, 9, 2)


def _case(cls, fields, values, other, hashable=True):
    """One record class: its field names, the values of one instance and
    another instance's values, all given by position."""
    return pytest.param(cls, fields, values, other, hashable,
                        id=cls.__name__)


CASES = [
    _case(Mono, ("i", "j"), (1, 2), (2, 1)),
    _case(Ideal, ("a", "b"), (1, inf), (inf, 1)),
    _case(Generator, ("name", "gr_u", "gr_v"), ("a", 2, 0), ("a", 0, 2)),
    _case(ValidationReport,
          ("d_squared", "grading_law", "reduced", "grading_symmetric",
           "messages"), (True, True, False, True, ("m",)),
          (True, True, False, True, ())),
    _case(FUDecomp, ("tower_count", "tower_gradings", "torsion"),
          (1, (0,), ((2, -2),)), (1, (0,), ((1, -2),))),
    _case(HatRanks, ("ranks",), (((0, 0, 1),),), (((0, 0, 2),),)),
    _case(MapSpace,
          ("source", "target", "variance", "bidegree", "ideal", "masks",
           "starts"),
          (K2, K2, "skew", (0, 0), K2.ring, SPACE.masks, SPACE.starts),
          (K2, K2, "eq", (0, 0), K2.ring, SPACE2.masks, SPACE2.starts)),
    _case(IotaData, ("map",), (IOTAS[0].map,), (IOTAS[1].map,)),
    _case(IotaReport, ("squares", "messages"), (False, ("bad",)), (True, ())),
    _case(_SquareSystem,
          ("iota_space", "unit_mask", "base_bits", "class_dirs", "z0", "lin",
           "cross"), (SPACE, 1, 2, (3,), 4, (5,), {(0, 1): 6}),
          (SPACE, 1, 2, (3,), 4, (5,), {}), hashable=False),
    _case(LocalSearchSpec, ("source", "target", "budget"),
          ((K2, IOTAS[0]), (UNKNOT, None), 7),
          ((K2, IOTAS[1]), (UNKNOT, None), 7)),
    _case(NonexistenceToken, ("unknowns", "equations", "iota_pairs"),
          (4, 9, 2), (4, 9, 3)),
    _case(LocalCertificate, ("found", "iota_pair", "token"),
          (None, None, TOKEN), (None, None, NonexistenceToken(1, 1, 1))),
    _case(CfkFile, ("complex", "iota"), (K2, IOTAS[0]), (K2, None)),
]


@pytest.mark.parametrize("cls, fields, values, other, hashable", CASES)
def test_record_behaviour(cls, fields, values, other, hashable):
    rec = cls(*values)
    assert tuple(getattr(rec, f) for f in fields) == values
    same = cls(**dict(zip(fields, values)))
    twin = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    diff = cls(*other)
    assert rec == same == twin and not rec != same
    assert rec != diff and not rec == diff
    assert rec != values and values != rec  # a record is not its fields
    if hashable:
        assert hash(rec) == hash(same) == hash(twin)
        assert len({rec, same, twin, diff}) == 2
    else:
        with pytest.raises(TypeError):
            hash(rec)
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for f in fields + ("unknown_field",):
        with pytest.raises(AttributeError):
            setattr(rec, f, values[0])
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(rec, f)
    assert tuple(getattr(rec, f) for f in fields) == values
    with pytest.raises(TypeError):
        cls(*values, None)


def _clones(obj):
    return (copy.copy(obj), copy.deepcopy(obj),
            pickle.loads(pickle.dumps(obj)))


def test_records_of_plain_values_copy_and_pickle():
    for rec in (Mono(1, 2), Ideal(1, inf), Generator("a", 2, 0),
                ValidationReport(True, False, True, True, ("m",)),
                FUDecomp(1, (0,), ((2, -2),)), HatRanks(((0, 0, 1),)),
                IotaReport(False, ("bad",)), TOKEN,
                LocalCertificate(token=TOKEN)):
        for clone in _clones(rec):
            assert type(clone) is type(rec) and clone == rec
            assert repr(clone) == repr(rec)


def test_complexes_maps_and_the_records_holding_them_copy_and_pickle():
    stray = parse_cfk("complex s ring full\ngen a gr 0 0\ngen b gr 1 -1\n"
                      "d a = V b\n").complex
    found = search_local_map(LocalSearchSpec((UNKNOT, None), (K2, IOTAS[0])))
    assert found.exists
    for C in (K2, UNKNOT, quotient(K2, Ideal.uv()), stray):
        for clone in _clones(C):
            assert type(clone) is Complex and clone == C
            assert (clone.name, clone._stray) == (C.name, C._stray)
            assert clone.validate() == C.validate()
    assert not stray.validate().grading_law
    for rec in (identity_map(K2), IOTAS[0], SPACE,
                parse_cfk(render_cfk(K2, IOTAS[0])),
                LocalSearchSpec((K2, IOTAS[0]), (UNKNOT, None)), found):
        for clone in _clones(rec):
            assert type(clone) is type(rec) and clone == rec


def test_record_defaults():
    assert Ideal() == Ideal(None, None) == Ideal.zero()
    assert (Ideal().a, Ideal().b) == (None, None)
    spec = LocalSearchSpec((K2, None), (UNKNOT, None))
    assert spec.budget == DEFAULT_BUDGET == 2_000_000
    cert = LocalCertificate()
    assert (cert.found, cert.iota_pair, cert.token) == (None, None, None)
    assert not cert.exists and LocalCertificate(token=TOKEN).token is TOKEN
    assert ValidationReport(True, True, True, True).messages == ()
    assert IotaReport(True).messages == () and IotaReport(True).ok
    assert IotaData.mode == IOTAS[0].mode == "almost"
    assert "mode" not in repr(IOTAS[0])


def test_mono_order_follows_exponent_pairs():
    monos = [Mono(i, j) for i in range(3) for j in range(3)]
    for a in monos:
        for b in monos:
            ka, kb = (a.i, a.j), (b.i, b.j)
            assert (a < b, a <= b, a > b, a >= b) == (
                ka < kb, ka <= kb, ka > kb, ka >= kb)
    assert sorted(reversed(monos)) == monos
    with pytest.raises(TypeError):
        Mono(0, 1) < (0, 2)


def test_iota_memos_stay_out_of_eq_hash_and_repr():
    iota = enumerate_almost_iotas(K2)[0]
    fresh = IotaData(iota.map)
    assert iota._report is None and iota._self_local is None
    validate_iota(K2, iota)
    object.__setattr__(iota, "_self_local", (1, identity_map(K2)))
    assert iota._report is not None and fresh._report is None
    assert iota == fresh and hash(iota) == hash(fresh)
    assert repr(iota) == repr(fresh) == f"IotaData(map={iota.map!r})"
    with pytest.raises(TypeError):
        IotaData(iota.map, _report=None)


def test_map_space_views_are_built_on_read():
    space = MapSpace.build(K2, K2, "eq", (0, 0), K2.ring)
    assert len(space.pairs) == space.dim > 0 and len(space.ranks) == len(K2)
    assert space.pairs is space.pairs and space.ranks is space.ranks
    assert space == SPACE2 and hash(space) == hash(SPACE2)


def test_record_construction_errors():
    with pytest.raises(StructuralError,
                       match=r"generator a: gr_U - gr_V must be even, "
                             r"got \(1, 0\)"):
        Generator("a", 1, 0)
    with pytest.raises(ValueError,
                       match=r"negative exponent in monomial \(-1, 0\)"):
        Mono(-1, 0)
    with pytest.raises(ValueError, match="box ideal needs exponents >= 1"):
        Ideal(0, 1)
    with pytest.raises(StructuralError,
                       match=r"iota must be skew of bidegree \(0,0\)"):
        IotaData(identity_map(K2, Ideal.max_ideal()))
    skew_full = LinMap(K2, K2, "skew", (0, 0), Ideal.zero(),
                       IOTAS[0].map.rows)
    with pytest.raises(StructuralError,
                       match=r"almost iota must be reduced mod \(U,V\)"):
        IotaData(skew_full)
