"""The record contract of the numpy-free value types: equality and hash by
value, the dataclass repr, keyword construction, immutability, pickling
and copying, and the validation each constructor performs."""

import copy
import math
import pickle

import pytest

from qtsallis import (CapacityError, EntropicIndex, Spectrum, ThresholdPoint, ValidationError,
                      WernerParams)

#: (record, an equal record built by keyword, a different record, its
#: field names, its repr).
RECORDS = [
    (EntropicIndex(2), EntropicIndex(q=2.0), EntropicIndex(3.0), ("q",),
     "EntropicIndex(q=2.0)"),
    (Spectrum(((0.25, 2), (0.5, 1))), Spectrum(levels=((0.5, 1), (0.25, 2))),
     Spectrum(((0.5, 2),)), ("levels",), "Spectrum(levels=((0.5, 1), (0.25, 2)))"),
    (WernerParams(2, 3, 0.4), WernerParams(levels=2.0, parties=3, mixing=0.4),
     WernerParams(2, 3, 0.5), ("levels", "parties", "mixing"),
     "WernerParams(levels=2, parties=3, mixing=0.4)"),
    (ThresholdPoint(2.0, 0.25, 0.0), ThresholdPoint(q=2.0, x_star=0.25, bracket_width=0.0),
     ThresholdPoint(2.0, None, 0.0), ("q", "x_star", "bracket_width"),
     "ThresholdPoint(q=2.0, x_star=0.25, bracket_width=0.0)"),
]
IDS = ["EntropicIndex", "Spectrum", "WernerParams", "ThresholdPoint"]


@pytest.mark.parametrize("record, same, other, fields, text", RECORDS, ids=IDS)
def test_equal_and_hashed_by_value(record, same, other, fields, text):
    assert record == same and hash(record) == hash(same)
    assert record != other
    assert len({record, same, other}) == 2


@pytest.mark.parametrize("record, same, other, fields, text", RECORDS, ids=IDS)
def test_unequal_to_a_tuple_or_another_record_type(record, same, other, fields, text):
    assert record != tuple(getattr(record, name) for name in fields)
    assert all(record != rival for rival, *_ in RECORDS if type(rival) is not type(record))


@pytest.mark.parametrize("record, same, other, fields, text", RECORDS, ids=IDS)
def test_repr_names_every_field(record, same, other, fields, text):
    assert repr(record) == text


def test_repr_of_an_unlocated_point():
    assert repr(ThresholdPoint(0.5, None, math.nan)) == \
        "ThresholdPoint(q=0.5, x_star=None, bracket_width=nan)"


@pytest.mark.parametrize("record, same, other, fields, text", RECORDS, ids=IDS)
def test_fields_refuse_assignment_and_deletion(record, same, other, fields, text):
    for name in fields:
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=name):
            setattr(record, name, before)
        with pytest.raises(AttributeError, match=name):
            delattr(record, name)
        assert getattr(record, name) == before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, same, other, fields, text", RECORDS, ids=IDS)
def test_pickle_and_copies_round_trip(record, same, other, fields, text):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == text


def test_constructors_normalise_their_fields():
    assert EntropicIndex(2).q == 2.0 and type(EntropicIndex(2).q) is float
    params = WernerParams(2.0, 3.0, 1)
    assert (params.levels, params.parties, params.mixing) == (2, 3, 1.0)
    assert type(params.levels) is int and type(params.mixing) is float
    assert params.total_dim == 8
    spec = Spectrum(((-5e-11, 1), (1.0, 1)))
    assert spec.levels == ((1.0, 1), (0.0, 1))
    assert spec.total_multiplicity == 2


@pytest.mark.parametrize("build", [
    lambda: EntropicIndex(0),
    lambda: EntropicIndex(-1.0),
    lambda: EntropicIndex(math.nan),
    lambda: EntropicIndex(math.inf),
    lambda: Spectrum(()),
    lambda: Spectrum(((0.5, 1), (0.5, 0))),
    lambda: Spectrum(((0.9, 1),)),
    lambda: Spectrum(((1.5, 1), (-0.5, 1))),
    lambda: Spectrum(((1.0 + 2e-10, 1),)),
    lambda: WernerParams(2, 3, 1.5),
    lambda: WernerParams(2, 3, -0.1),
    lambda: WernerParams(1, 3, 0.5),
    lambda: WernerParams(2, 1, 0.5),
    lambda: WernerParams(2.5, 3, 0.5),
    lambda: WernerParams(2, math.nan, 0.5),
], ids=["q-zero", "q-negative", "q-nan", "q-inf", "no-levels", "zero-multiplicity",
        "weight", "negative", "above-one", "mixing-above", "mixing-below", "one-level",
        "one-party", "fractional-levels", "nan-parties"])
def test_validation_still_fires(build):
    with pytest.raises(ValidationError):
        build()


def test_family_beyond_the_multiplicity_cap_is_refused():
    with pytest.raises(CapacityError):
        WernerParams(2, 63, 0.5)
