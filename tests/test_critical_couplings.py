"""``critical_couplings`` against the scalar bisection it batches.

One row must give the oracle's bytes. Several rows bisected together sum
each row's weight in another order, so their c_n may move in the last
digits: within 4e-12 relative, on the positive side of the weight the
batch itself computes. Every error has the oracle's class and message,
and a batch raises the error of its first failing row.
"""

import functools

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
    """``critical_couplings(rows)`` against the oracle outcome of each row."""
    failures = [out for out in expected if isinstance(out, tuple)]
    if failures:
        error, message = failures[0]
        with pytest.raises(error) as info:
            critical_couplings(rows, omega)
        assert str(info.value) == message
        return
    got = critical_couplings(rows, omega)
    assert all(type(c) is float for c in got)
    np.testing.assert_allclose(got, expected, rtol=BATCH_RTOL, atol=0.0)
    if len(rows) > 1:
        assert (_batch_weights(rows, got, omega) > 0.0).all()


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_one_row_is_the_scalar_bisection(pool, omega):
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


@pytest.mark.parametrize("model", ["krawtchouk", "constant"])
@pytest.mark.parametrize("sizes, code", [("2,1", 3), ("1,2", 2), ("30,2", 3), ("5,1,2", 2)])
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
