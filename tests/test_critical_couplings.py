"""``critical_couplings`` against the scalar bisection it batches.

One row must give the oracle's bytes. Several rows bisected together sum
each row's weight in another order, so their c_n may move in the last
digits: within 4e-12 relative, on the positive side of the weight the
batch itself computes. Every error has the oracle's class and message,
and a batch raises the error of its first failing row. Tables bisect over
Python floats below ``coupling._ARRAY_ROWS`` rows and over numpy arrays
from there on; every pool runs on both paths, ``_ARRAY_ROWS`` patched.
"""

import functools
import warnings
from unittest import mock

import numpy as np
import pytest

from wignerosc import (InteractionModel, NoCriticalCouplingError, coupling, critical_coupling,
                       critical_couplings, decompose)
from wignerosc.cli import main
from wignerosc.spectral import eigenvalues
from oracles import scalar_critical_coupling

OMEGAS = (0.5, 1.0, 3.7, 1e130)
BATCH_RTOL = 4e-12

KRAWTCHOUK = [np.arange(n, dtype=float) for n in range(2, 301)]
CONSTANT = [eigenvalues(InteractionModel.constant(n)) for n in range(2, 201)]


def _seeded_rows(seed: int = 11, count: int = 120) -> list[np.ndarray]:
    """Random eigenvalue arrays, a third with a negative lambda_min, and rows that fail."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        n = int(rng.integers(2, 41))
        low = -1.0 if i % 3 == 0 else 0.0
        rows.append(rng.uniform(low, 3.0, size=n))
    rows += [np.array([2.0, 2.0, 2.0]), np.array([-1.0, 1.0, 1.0]), np.array([0.0, 1e300]),
             np.array([-0.6, 0.0, 1.0]), np.array([0.0, np.nan, 2.0]), np.array([1.0])]
    return rows


SEEDED = _seeded_rows()
POOLS = {"krawtchouk": KRAWTCHOUK, "constant": CONSTANT, "seeded": SEEDED}


# _ARRAY_ROWS that put every table on the float path, and every table of two or more rows on
# the array path (one row sums on its own)
PATHS = (10 ** 9, 2)


def _outcome(solve, *args):
    """The value, or the class and message of the error, of ``solve(*args)``."""
    try:
        return solve(*args)
    except (ValueError, NoCriticalCouplingError) as exc:
        return type(exc), str(exc)


@functools.lru_cache(maxsize=None)
def _oracle(pool: str, omega: float) -> tuple:
    return tuple(_outcome(scalar_critical_coupling, row, omega) for row in POOLS[pool])


def _batch_weights(rows, couplings, omega):
    """Each row's smallest weight, evaluated the way a batch of these rows evaluates it."""
    sizes = np.array([row.shape[0] for row in rows])
    starts = np.cumsum(sizes) - sizes
    sq = np.sqrt(omega ** 2 + np.repeat(couplings, sizes) * np.concatenate(rows))
    return np.add.reduceat(sq, starts) / (sizes - 1) - np.maximum.reduceat(sq, starts)


def _check_batch(rows, expected, omega):
    """``critical_couplings(rows)`` on both paths against the oracle outcome of each row."""
    failures = [out for out in expected if isinstance(out, tuple)]
    for array_rows in PATHS:
        with mock.patch.object(coupling, "_ARRAY_ROWS", array_rows):
            if failures:
                error, message = failures[0]
                with pytest.raises(error) as info:
                    critical_couplings(rows, omega)
                assert str(info.value) == message
                continue
            got = critical_couplings(rows, omega)
        assert all(type(c) is float for c in got)
        np.testing.assert_allclose(got, expected, rtol=BATCH_RTOL, atol=0.0)
        if len(rows) > 1:
            assert (_batch_weights(rows, got, omega) > 0.0).all()


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_one_row_is_the_scalar_bisection(pool, omega):
    for array_rows in PATHS:
        with mock.patch.object(coupling, "_ARRAY_ROWS", array_rows):
            for row, expected in zip(POOLS[pool], _oracle(pool, omega)):
                assert _outcome(critical_couplings, [row], omega) == (
                    expected if isinstance(expected, tuple) else [expected])
                assert _outcome(critical_coupling, row, omega) == expected


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("pool", ["krawtchouk", "constant"])
def test_a_table_in_one_bisection(pool, omega):
    # n = 2, and n = 3 of the constant chain, have no root: the table starts at n = 4
    _check_batch(POOLS[pool][2:], _oracle(pool, omega)[2:], omega)
    # with them first, the whole table raises the error of n = 2
    _check_batch(POOLS[pool], _oracle(pool, omega), omega)


@pytest.mark.parametrize("omega", OMEGAS)
def test_seeded_batches(omega):
    rng = np.random.default_rng(5)
    expected = _oracle("seeded", omega)
    solvable = [i for i, out in enumerate(expected) if not isinstance(out, tuple)]
    _check_batch([SEEDED[i] for i in solvable], [expected[i] for i in solvable], omega)
    for _ in range(40):  # failing rows among the rest, the first failure in any position
        picks = rng.choice(len(SEEDED), size=int(rng.integers(2, 9)), replace=False)
        _check_batch([SEEDED[i] for i in picks], [expected[i] for i in picks], omega)


def test_rows_split_into_batches_keep_their_order_and_errors(monkeypatch):
    monkeypatch.setattr(coupling, "_BATCH_ENTRIES", 60)
    expected = _oracle("krawtchouk", 1.0)
    _check_batch(KRAWTCHOUK[1:40], expected[1:40], 1.0)
    rows = KRAWTCHOUK[20:30] + [np.arange(2.0)] + KRAWTCHOUK[2:5] + [np.array([1.0])]
    with pytest.raises(NoCriticalCouplingError):  # n = 2 fails before n = 1
        critical_couplings(rows)
    assert critical_couplings([]) == []


def _solvable(pool: str, omega: float) -> list[np.ndarray]:
    return [row for row, out in zip(POOLS[pool], _oracle(pool, omega))
            if not isinstance(out, tuple)]


# one failing row of each kind: no root (every tested c), the positive-definiteness limit, the
# overflowing bracket, a non-finite eigenvalue and a single oscillator
FAILING = [np.arange(2.0), np.array([2.0, 2.0, 2.0]), np.array([-1.0, 1.0, 1.0]),
           np.array([0.0, 1e300]), np.array([0.0, np.nan, 2.0]), np.array([1.0])]


@pytest.mark.parametrize("omega", [1.0, 3.7])
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_tables_either_side_of_the_array_threshold(pool, omega):
    rows = _solvable(pool, omega)
    full = critical_couplings(rows, omega)
    for k in (coupling._ARRAY_ROWS - 1, coupling._ARRAY_ROWS, coupling._ARRAY_ROWS + 1):
        assert critical_couplings(rows[:k], omega) == full[:k]  # float for float
        for bad in FAILING:
            error, message = _outcome(scalar_critical_coupling, bad, omega)
            for at in (0, k // 2, k):
                with pytest.raises(error) as info:
                    critical_couplings(rows[:at] + [bad] + rows[at:k], omega)
                assert str(info.value) == message, (k, at)


def test_a_failing_row_doubles_its_bracket_on_its_own(monkeypatch):
    """Once the rows after n = 2 have bracketed, each pass evaluates n = 2 alone."""
    layouts, term_sums = [], coupling._term_sums

    def spy(rows, omega2):
        sums = term_sums(rows, omega2)

        def counted(c):
            layouts.append([row.shape[0] for row in rows])
            return sums(c)
        return counted
    monkeypatch.setattr(coupling, "_term_sums", spy)
    rows = KRAWTCHOUK[:1] + KRAWTCHOUK[3:199]  # n = 2, then n = 5..200, each with a root below 1
    error, message = _oracle("krawtchouk", 1.0)[0]
    with pytest.raises(error) as info:
        critical_couplings(rows)
    assert str(info.value) == message
    assert layouts[0] == [2] + list(range(5, 201))
    assert layouts[1:] == [[2]] * (coupling._MAX_BRACKET_DOUBLINGS - 1)


def test_rows_not_probed_sit_where_no_bracket_overflows():
    # [0, 1e300] fails when its bracket passes 2^27; the row before it, whose root lies near
    # 5e8, brackets two passes later, with the failed row still in the array
    rows = [np.arange(5.0) * 1e-9, np.array([0.0, 1e300])]
    error, message = _outcome(scalar_critical_coupling, rows[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            critical_couplings(rows)
    assert str(info.value) == message


@pytest.mark.parametrize("model", ["krawtchouk", "constant"])
@pytest.mark.parametrize("sizes, code", [("2,1", 3), ("1,2", 2), ("30,2", 3), ("5,1,2", 2),
                                         ("2..200", 3)])
def test_bounds_raises_for_its_first_failing_size(model, sizes, code, capsys):
    assert main(["bounds", "--model", model, "--n", sizes]) == code
    assert capsys.readouterr().out == ""


def test_constant_bounds_need_no_eigenvectors(capsys):
    assert main(["bounds", "--model", "constant", "--n", "4..40", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(4, 41))
    expected = [scalar_critical_coupling(decompose(InteractionModel.constant(n)).lambdas)
                for n in range(4, 41)]
    got = [float(row.split(",")[2]) for row in rows]
    np.testing.assert_allclose(got, expected, rtol=BATCH_RTOL, atol=0.0)
