"""The behaviour every record of the package shares: construction by
position or keyword, equality and hash by type and field values, the repr,
immutability, and `pickle` and `copy` round trips."""

import copy
import pickle

import pytest

from gcartan import gram, invariants, qcartan, snf
from gcartan.partitions import BlockLabel
from gcartan.qlaurent import quantum_int

# each record with a factory of its field values, in order: two calls give
# equal values built afresh
RECORDS = {
    "BlockLabel": (BlockLabel, lambda: {"core": (2, 1), "weight": 1, "ell": 2}),
    "DynkinDiagram": (qcartan.DynkinDiagram, lambda: {"family": "D", "rank": 5}),
    "TwistedDiagram": (qcartan.TwistedDiagram, lambda: {"kind": "A2_odd", "n": 3}),
    "BlockSum": (gram.BlockSum, lambda: {"ell": 2, "n": 0, "blocks": ()}),
    "InvariantMultiset": (
        snf.InvariantMultiset,
        lambda: {"ring": snf.RING_QLAURENT, "elements": (quantum_int(1), quantum_int(2))},
    ),
    "DiagonalizationResult": (
        snf.DiagonalizationResult,
        lambda: {"diagonal": snf.InvariantMultiset.polys([quantum_int(3)]), "steps": 4,
                 "stopped": "cleared"},
    ),
    "BunkaitoComponent": (
        invariants.BunkaitoComponent, lambda: {"weight": 0, "pairs": ((1, 2),), "multiplicity": 1}
    ),
    "BunkaitoReport": (
        invariants.BunkaitoReport,
        lambda: {"components": (invariants.BunkaitoComponent(0, ((1, 2),), 1),), "total": 2,
                 "verified": True},
    ),
    "LayerResult": (
        invariants.LayerResult, lambda: {"name": "determinant", "status": "VERIFIED",
                                         "details": {"dim": 3}}
    ),
    "ConjectureReport": (
        invariants.ConjectureReport,
        lambda: {"p": 2, "r": 1, "d": 2,
                 "layers": (invariants.LayerResult("determinant", "VERIFIED", {"dim": 3}),),
                 "elapsed_ms": 5},
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_behaviour(name):
    cls, fields = RECORDS[name]
    names, values = zip(*fields().items())
    a, b = cls(*values), cls(**fields())
    assert a == b and not a != b
    try:
        hash(tuple(values))
    except TypeError:  # a dict among the fields: the record has no hash either
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    # another type with the same values is not equal, either way round
    twin = type(name, (cls,), {})(**fields())
    assert a != twin and twin != a and a != tuple(values)
    for attr in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, attr, None)
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert a == b
    assert repr(a) == f"{name}({', '.join(f'{k}={v!r}' for k, v in zip(names, values))})"
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    for args, kwargs in [((), {}), ((*values, 0), {}), (values, {names[0]: values[0]}),
                         (values, {"extra": 0})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_defaults_checks_and_value_hash():
    assert qcartan.TwistedDiagram("E6_2").n == 0
    assert qcartan.TwistedDiagram(kind="D4_3") == qcartan.TwistedDiagram("D4_3", 0)
    # keyword construction validates as positional construction does
    with pytest.raises(ValueError, match="invalid diagram E_9"):
        qcartan.DynkinDiagram(family="E", rank=9)
    with pytest.raises(ValueError, match="not a 2-core"):
        BlockLabel(core=(2,), weight=0, ell=2)
    # the cache of [X] is keyed by the diagram's value, not its identity
    assert qcartan.quantized_cartan(qcartan.type_a(5)) is qcartan.quantized_cartan(
        qcartan.type_a(5)
    )
