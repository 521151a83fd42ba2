"""The value types are immutable, and copy and pickle like plain values.

Every one of them derives from ``rings._Frozen``: setting or deleting an
attribute raises, and a pickle, ``copy.copy`` or ``copy.deepcopy`` round
trip gives an equal value whose caches start empty.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from motivic_power.hilbert import VarietyClass, local_series
from motivic_power.oracles import WeightProfile
from motivic_power.power import EulerProduct, factor
from motivic_power.rings import MonomialMap, Polynomial
from motivic_power.series import Series

from conftest import LAURENT_L, UV

SRC = Path(__file__).resolve().parents[1] / "src"

P = Polynomial(UV, {(2, 1): -3, (0, 1): 2 ** 80, (0, 0): 1})
A = Series(UV, 3, [1, P, P * P, 0])

VALUES = {
    "RingDescriptor": LAURENT_L,
    "Polynomial": P,
    "Series": A,
    "EulerProduct": factor(A),
    "VarietyClass": VarietyClass(P, 2),
    "LocalHilbertData": local_series(2, 5),
    "MonomialMap": MonomialMap.evaluate_at_ones(UV),
    "WeightProfile": WeightProfile([1, 0, 2], 3),
}

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle-0": lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
}


def fields(value):
    """The value's attributes; types without ``==`` compare by these."""
    return value.__getstate__()


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("name", VALUES)
def test_round_trip_is_equal(name, how):
    value = VALUES[name]
    twin = ROUND_TRIPS[how](value)
    assert type(twin) is type(value)
    assert fields(twin) == fields(value)
    if type(value).__eq__ is not object.__eq__:
        assert twin == value


@pytest.mark.parametrize("name", VALUES)
def test_attributes_cannot_be_set_or_deleted(name):
    value = VALUES[name]
    slot = next(iter(fields(value)))
    with pytest.raises(AttributeError, match="%s is immutable" % name):
        setattr(value, slot, None)
    with pytest.raises(AttributeError, match="%s is immutable" % name):
        delattr(value, slot)
    with pytest.raises(AttributeError, match="%s is immutable" % name):
        value.extra = 1


def test_caches_are_left_out_and_start_empty():
    hash(P)
    factor(A)
    assert A._factor_cache
    assert "_factor_cache" not in fields(A)
    for how in ROUND_TRIPS.values():
        p, a = how(P), how(A)
        assert hash(p) == hash(P)
        assert a._factor_cache == {}
        assert factor(a) == factor(A)


def test_copies_work_as_values():
    p = pickle.loads(pickle.dumps(P))
    a = copy.deepcopy(A)
    assert p * p == P * P
    assert {p: 1}[P] == 1
    assert a * a == A * A
    assert EulerProduct(UV, 3, factor(a).exponents) == factor(A)


def test_polynomial_hash_survives_another_hash_seed():
    # RingDescriptor's hash covers its variable names, whose string hash
    # depends on PYTHONHASHSEED: a hash pickled in one interpreter would
    # be wrong in another.
    hash(P)
    script = (
        "import pickle, sys\n"
        "from motivic_power.rings import Polynomial, RingDescriptor\n"
        "p = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = Polynomial(RingDescriptor(('u', 'v')), dict(p.terms))\n"
        "print(hash(p) == hash(fresh), {fresh: 1}.get(p))\n"
    )
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", script],
                             input=pickle.dumps(P), env=env,
                             capture_output=True, check=True)
        assert out.stdout.decode().split() == ["True", "1"]