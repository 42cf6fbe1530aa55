"""The package's ten records are immutable named tuples that keep their field layout.

Each record keeps the field names, order and defaults pinned in ``LAYOUT``,
builds from keywords, reprs as ``Name(field=...)``, refuses assignment and
survives copy and pickle. The five records that validate their fields do
so again on ``_replace`` and ``_make``.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from wignerosc import (CompatibilityReport, CriticalCoupling, FockBasisState, GZPattern,
                       InteractionModel, ModeFrequencies, PositiveDefinitenessError,
                       ReconstructedObservables, SpectralDecomposition, SpectrumLine,
                       TruncatedOperatorSet, build_fock_operators, decompose, mode_frequencies,
                       reconstruct_observables, verify_compatibility)

# field names in order, and the defaults of the trailing ones
LAYOUT = {
    InteractionModel: ("n omega c kind ptilde matrix", dict(ptilde=None, matrix=None)),
    SpectralDecomposition: ("lambdas u source orthonormality reconstruction",
                            dict(orthonormality=None, reconstruction=None)),
    ModeFrequencies: ("mu sqrt_mu gap", {}),
    GZPattern: ("rows n p", {}),
    FockBasisState: ("occupations cutoff", {}),
    CriticalCoupling: ("n c_critical c_bound", dict(c_bound=None)),
    SpectrumLine: ("energy multiplicity label", {}),
    TruncatedOperatorSet: ("n cutoff sqrt_mu a_plus h interior", {}),
    CompatibilityReport: ("cutoff interior_dim raising_residuals", {}),
    ReconstructedObservables: ("q w position_cc_residuals momentum_cc_residuals "
                               "pairing_residual", {}),
}


def _records() -> dict:
    model = InteractionModel.constant(3, c=0.2)
    decomp = decompose(model)
    freqs = mode_frequencies(decomp, model.omega, model.c)
    ops = build_fock_operators(3, freqs, 3)
    return {
        InteractionModel: model,
        SpectralDecomposition: decomp,
        ModeFrequencies: freqs,
        GZPattern: GZPattern(rows=((2, 1, 0), (2, 0), (1,)), n=3, p=2),
        FockBasisState: FockBasisState(occupations=(1, 0, 2), cutoff=3),
        CriticalCoupling: CriticalCoupling(n=4, c_critical=0.5, c_bound=0.25),
        SpectrumLine: SpectrumLine(energy=2.5, multiplicity=3, label=(1, (0, 1))),
        TruncatedOperatorSet: ops,
        CompatibilityReport: verify_compatibility(ops),
        ReconstructedObservables: reconstruct_observables(decomp, ops, model),
    }


RECORDS = _records()


def _same(a, b) -> bool:
    """Same type and field values, arrays compared by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b))


def test_every_record_is_covered():
    assert set(RECORDS) == set(LAYOUT) and len(LAYOUT) == 10


@pytest.mark.parametrize("cls", LAYOUT, ids=lambda cls: cls.__name__)
def test_fields_in_their_order_with_their_defaults(cls):
    names, defaults = LAYOUT[cls]
    record = RECORDS[cls]
    assert record._fields == tuple(names.split())
    given = {name: getattr(record, name) for name in record._fields
             if name not in defaults and not (cls is ModeFrequencies and name == "sqrt_mu")}
    rebuilt = cls(**given)
    assert {name: getattr(rebuilt, name) for name in defaults} == defaults
    if not defaults:
        assert _same(rebuilt, record)


@pytest.mark.parametrize("cls", LAYOUT, ids=lambda cls: cls.__name__)
def test_repr_immutability_copy_and_pickle(cls):
    record = RECORDS[cls]
    assert repr(record).startswith(f"{cls.__name__}({record._fields[0]}=")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert _same(clone, record)
    assert _same(cls._make(record), record)
    assert _same(record._replace(), record)


@pytest.mark.parametrize("cls, changes, error", [
    (InteractionModel, dict(c=-1.0), ValueError),
    (InteractionModel, dict(n=0), ValueError),
    (InteractionModel, dict(kind="circular"), ValueError),
    (InteractionModel, dict(kind="krawtchouk", ptilde=1.5), ValueError),
    (SpectralDecomposition, dict(lambdas=["not a number"]), ValueError),
    (ModeFrequencies, dict(mu=np.array([1.0, -1.0, 2.0])), PositiveDefinitenessError),
    (ModeFrequencies, dict(mu=np.array([1.0, math.nan, 2.0])), ValueError),
    (ModeFrequencies, dict(sqrt_mu=np.ones(3)), TypeError),  # derived from mu
    (GZPattern, dict(rows=((1, 2, 0), (1, 0), (1,))), ValueError),
    (GZPattern, dict(p=1), ValueError),
    (GZPattern, dict(p=math.inf), ValueError),
    (FockBasisState, dict(cutoff=2), ValueError),
    (FockBasisState, dict(occupations=(1, -1, 0)), ValueError),
    (ModeFrequencies, dict(gap=np.ones(2)), ValueError),  # not mu's shape
])
def test_replace_and_make_validate_again(cls, changes, error):
    record = RECORDS[cls]
    with pytest.raises(error):
        record._replace(**changes)
    if "sqrt_mu" not in changes:
        fields = [changes.get(name, value) for name, value in zip(record._fields, record)]
        with pytest.raises(error):
            cls._make(fields)


def test_replace_normalises_like_the_constructor():
    decomp = RECORDS[SpectralDecomposition]
    u = np.array(decomp.u)
    assert u.flags.writeable and not decomp._replace(u=u).u.flags.writeable
    freqs = ModeFrequencies(mu=np.ones(2))._replace(mu=np.array([4.0, 9.0]))
    assert freqs.sqrt_mu.tolist() == [2, 3] and freqs.gap.tolist() == [5, 0]
    assert freqs._replace(gap=[6.0, 0.0]).gap.tolist() == [6, 0]
    state = RECORDS[FockBasisState]._replace(occupations=[np.int64(2), 1.0, True])
    assert state.occupations == (2, 1, 1)


def test_records_freeze_copies_not_the_callers_arrays():
    lambdas, u, mu, gap, matrix = (np.arange(1.0, 4.0), np.eye(3), np.ones(3), np.zeros(3),
                                   2 * np.eye(3))
    arrays = [*SpectralDecomposition(lambdas, u, "numeric")[:2], *ModeFrequencies(mu, gap),
              InteractionModel.general(matrix).matrix]
    assert all(a.flags.writeable for a in (lambdas, u, mu, gap, matrix))
    assert not any(a.flags.writeable for a in arrays)
    lambdas[0] = u[0, 0] = mu[0] = gap[0] = matrix[0, 0] = 7.0  # the records keep their own
    assert arrays[0][0] == arrays[1][0, 0] == arrays[2][0] == 1.0
    assert arrays[4][0] == 0.0 and arrays[5][0, 0] == 2.0


def test_records_are_tuples_by_value():
    line = RECORDS[SpectrumLine]
    energy, multiplicity, label = line
    assert (energy, multiplicity, label) == line == (2.5, 3, (1, (0, 1)))
    assert FockBasisState((1, 2), cutoff=3) < FockBasisState((1, 2), cutoff=4)
    assert hash(FockBasisState((1, 2), cutoff=3)) == hash(((1, 2), 3))


# ---------------------------------------------------------------- values that used to slip through


def test_fock_state_refuses_a_nan_or_fractional_cutoff():
    for cutoff in (math.nan, 2.5):
        with pytest.raises(ValueError, match="cutoff"):
            FockBasisState(occupations=(1,), cutoff=cutoff)


def test_fock_state_refuses_fractional_occupations():
    for occ in ((1.5,), (0, math.inf), (math.nan,)):
        with pytest.raises(ValueError, match=r"^occupations must be integers$"):
            FockBasisState(occupations=occ, cutoff=3)


def test_fock_state_normalises_integral_values():
    state = FockBasisState(occupations=(2.0, np.int64(1), False), cutoff=np.int64(3))
    assert state == ((2, 1, 0), 3)
    assert all(type(k) is int for k in state.occupations) and type(state.cutoff) is int


def test_pattern_refuses_fractional_entries():
    for rows in (((2.0, 0.0), (1.5,)), ((2, math.inf), (1,)), [[2, 0], [math.nan]]):
        with pytest.raises(ValueError, match=r"^entries must be integers$"):
            GZPattern(rows=rows, n=2, p=1)


def test_pattern_refuses_an_infinite_or_nan_label():
    for p in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^the V\(p\) label must be finite"):
            GZPattern(rows=((2, 0), (1,)), n=2, p=p)


def test_model_refuses_a_fractional_oscillator_count():
    for n in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            InteractionModel(n=n, omega=1.0, c=0.0, kind="constant")
    for n in (3.0, np.int64(3)):
        model = InteractionModel(n=n, omega=1.0, c=0.0, kind="constant")
        assert model.n == 3 and type(model.n) is int
