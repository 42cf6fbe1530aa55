"""``critical_couplings`` against the exact root of phi and the scalar bisection.

Each c_n is compared with the 40-digit ``decimal`` root of phi(c) = 1
(``oracles.exact_phi_root``): within 4 ulps for the Krawtchouk
and constant chains, and within 4 ulps over c_n phi'(c_n), the root's
condition, where that is below 1. It lies on the positive side, where the
library's own sum of phi - 1 (``oracles.phi_excess``) is negative, and it
is the same float alone, in any table and in any batch. The class and
message of each error come from the scalar bracketed bisection
``oracles.scalar_critical_coupling``, and ``oracles.phi_root_exists``
confirms that the rows of the error corpus that raise have no root; a
table raises the error of its first failing row.
"""

import functools
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest

from wignerosc import (InteractionModel, ModeFrequencies, NoCriticalCouplingError, coupling,
                       critical_coupling, critical_couplings, decompose, gl_weights,
                       mode_frequencies)
from wignerosc.cli import main
from wignerosc.spectral import eigenvalues, omega_squared
from oracles import (exact_phi_root, phi_excess, phi_root_exists, scalar_critical_coupling,
                     ulps_from)

OMEGAS = (0.5, 1.0, 3.7, 1e130)
CHAIN_ULPS = 4.0  # Krawtchouk and constant chains; other rows, over min(1, c_n phi'(c_n))

KRAWTCHOUK = [np.arange(n, dtype=float) for n in range(2, 301)]
CONSTANT = [eigenvalues(InteractionModel.constant(n)) for n in range(2, 301)]


def _seeded_rows(seed: int = 11, count: int = 120) -> list[np.ndarray]:
    """Spring chains, dense PSD matrices and uniform rows, a third of these with a negative
    lambda_min, and rows that fail."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(count):
        n = int(rng.integers(2, 41))
        if i % 4 == 0:  # a chain of springs k_0..k_n between two walls
            k = rng.uniform(0.5, 2.0, n + 1)
            rows.append(np.linalg.eigvalsh(
                np.diag(k[:-1] + k[1:]) - np.diag(k[1:-1], 1) - np.diag(k[1:-1], -1)))
        elif i % 4 == 1:
            b = rng.standard_normal((n, n))
            rows.append(np.linalg.eigvalsh(b @ b.T / n))
        else:
            rows.append(rng.uniform(-1.0 if i % 3 == 0 else 0.0, 3.0, size=n))
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
def _expected(pool: str, omega: float) -> tuple:
    """Per row: the scalar bisection's error, or None where it finds a c_n."""
    outcomes = (_outcome(scalar_critical_coupling, row, omega) for row in POOLS[pool])
    return tuple(out if isinstance(out, tuple) else None for out in outcomes)


@functools.lru_cache(maxsize=None)
def _alone(pool: str, omega: float) -> tuple:
    """Per row: ``critical_couplings([row])``'s c_n, or its error."""
    return tuple(_outcome(lambda row: critical_couplings([row], omega)[0], row)
                 for row in POOLS[pool])


_EXACT: dict[bytes, Decimal] = {}  # the exact root of phi in t = c / omega^2, per row


def _exact(row, c_n: float, omega2: float) -> Decimal:
    """The exact c_n of ``row`` at omega2, from the guess c_n on the row's first call."""
    key = row.tobytes()
    if key not in _EXACT:
        _EXACT[key] = exact_phi_root(row, c_n / omega2)
    return _EXACT[key] * Decimal(omega2)


def _check_c_n(row, c_n: float, omega: float, chain: bool) -> None:
    """c_n on the positive side, and within the stated ulp bound of the exact root."""
    omega2 = omega_squared(omega)
    assert type(c_n) is float and phi_excess(row, c_n, omega2) < 0.0
    top = row.max()
    big_r, r = math.sqrt(omega2 + c_n * top), np.sqrt(omega2 + c_n * row)
    condition = c_n / big_r * (omega2 / big_r ** 2) * float(np.sum((top - row) / r)) / 2.0
    bound = CHAIN_ULPS if chain else CHAIN_ULPS / min(1.0, condition)
    ulps = ulps_from(c_n, _exact(row, c_n, omega2))
    assert abs(ulps) <= bound, (len(row), ulps, condition)


def _check_table(pool: str, omega: float, picks) -> None:
    """``critical_couplings`` of the rows ``picks`` of ``pool``: each row's bytes alone, or
    the error of the first failing row."""
    rows, alone = [POOLS[pool][i] for i in picks], [_alone(pool, omega)[i] for i in picks]
    failures = [out for out in alone if isinstance(out, tuple)]
    if failures:
        error, message = failures[0]
        with pytest.raises(error) as info:
            critical_couplings(rows, omega)
        assert str(info.value) == message
    else:
        assert critical_couplings(rows, omega) == alone


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_one_row_is_the_scalar_bisection(pool, omega):
    """A row alone raises the scalar bisection's error, or gives a c_n near the exact root."""
    for row, expected, got in zip(POOLS[pool], _expected(pool, omega), _alone(pool, omega)):
        if expected is not None:
            assert got == expected
            continue
        assert not isinstance(got, tuple), (row, got)
        assert critical_coupling(row, omega) == got
        _check_c_n(row, got, omega, chain=pool != "seeded")


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("pool", ["krawtchouk", "constant"])
def test_a_table_in_one_bisection(pool, omega):
    # n = 2, and n = 3 of the constant chain, have no root: the table starts at n = 4
    _check_table(pool, omega, range(2, len(POOLS[pool])))
    # with them first, the whole table raises the error of n = 2
    _check_table(pool, omega, range(len(POOLS[pool])))


@pytest.mark.parametrize("omega", OMEGAS)
def test_seeded_batches(omega):
    rng = np.random.default_rng(5)
    _check_table("seeded", omega, [i for i, out in enumerate(_alone("seeded", omega))
                                   if not isinstance(out, tuple)])
    for _ in range(40):  # failing rows among the rest, the first failure in any position
        _check_table("seeded", omega, rng.choice(len(SEEDED), size=int(rng.integers(2, 9)),
                                                 replace=False))


@pytest.mark.parametrize("omega", [1.0, 3.7])
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_the_gl_gate_passes_exactly_up_to_c_n(pool, omega):
    """gl_weights sums phi - 1 as the solver does: all > 0 at c_n, one <= 0 one ulp above."""
    for row, c_n in zip(POOLS[pool], _alone(pool, omega)):
        if isinstance(c_n, tuple):
            continue
        assert (gl_weights(mode_frequencies(row, omega, c_n)) > 0).all(), (row.size, c_n)
        above = gl_weights(mode_frequencies(row, omega, math.nextafter(c_n, math.inf)))
        assert not (above > 0).all(), (row.size, c_n)


def test_gl_weights_of_a_negative_coupling_and_of_mu_alone_are_the_direct_sum():
    """beta_j = sum_k sqrt(mu_k) / (n - 1) - sqrt(mu_j), within 1e-12 of max |beta|."""
    rng = np.random.default_rng(2)
    for row in KRAWTCHOUK[1:40] + CONSTANT[1:40] + SEEDED[:40]:
        grid = rng.uniform(-0.9, 0.0, 5) / max(1.0, -row.min(), row.max())
        for freqs in (mode_frequencies(row, 1.0, grid),
                      ModeFrequencies(mode_frequencies(row, 1.0, -grid).mu)):
            sq = freqs.sqrt_mu
            direct = sq.sum(axis=-1, keepdims=True) / (row.size - 1) - sq
            beta = gl_weights(freqs)
            assert np.abs(beta - direct).max() <= 1e-12 * np.abs(direct).max(), row


def test_rows_split_into_batches_keep_their_order_and_errors(monkeypatch):
    monkeypatch.setattr(coupling, "_BATCH_ENTRIES", 60)
    for pool in ("krawtchouk", "constant"):  # batches of 1 to 7 rows, then one row each
        assert critical_couplings(POOLS[pool][2:], 3.7) == list(_alone(pool, 3.7)[2:])
    rows = KRAWTCHOUK[20:30] + [np.arange(2.0)] + KRAWTCHOUK[2:5] + [np.array([1.0])]
    with pytest.raises(NoCriticalCouplingError):  # n = 2 fails before n = 1
        critical_couplings(rows)
    assert critical_couplings([]) == []


# one failing row of each kind: no root (every tested c), the positive-definiteness limit, the
# overflowing bracket, a non-finite eigenvalue and a single oscillator
FAILING = [np.arange(2.0), np.array([2.0, 2.0, 2.0]), np.array([-1.0, 1.0, 1.0]),
           np.array([0.0, 1e300]), np.array([0.0, np.nan, 2.0]), np.array([1.0])]


@pytest.mark.parametrize("omega", [1.0, 3.7])
@pytest.mark.parametrize("pool", sorted(POOLS))
def test_tables_either_side_of_the_array_threshold(pool, omega, monkeypatch):
    """Tables of k - 1, k and k + 1 rows about the array threshold ``_BATCH_ENTRIES``, the
    eigenvalues solved in one array, patched to hold the first k rows."""
    alone = _alone(pool, omega)
    rows = [row for row, out in zip(POOLS[pool], alone) if not isinstance(out, tuple)]
    c_n = [out for out in alone if not isinstance(out, tuple)]
    k = 34
    monkeypatch.setattr(coupling, "_BATCH_ENTRIES", sum(row.size for row in rows[:k]))
    for size in (k - 1, k, k + 1):
        assert critical_couplings(rows[:size], omega) == c_n[:size]  # float for float
        for bad in FAILING:
            error, message = _outcome(scalar_critical_coupling, bad, omega)
            for at in (0, size // 2, size):
                with pytest.raises(error) as info:
                    critical_couplings(rows[:at] + [bad] + rows[at:size], omega)
                assert str(info.value) == message, (size, at)


def test_a_failing_row_doubles_its_bracket_on_its_own(monkeypatch):
    """n = 2 has no root, so its bracket doubles alone; the rows after it are never solved."""
    layouts, newton = [], coupling._newton

    def spy(lam, d, owner, starts, sizes, *args):
        layouts.append(sizes.tolist())
        return newton(lam, d, owner, starts, sizes, *args)
    monkeypatch.setattr(coupling, "_newton", spy)
    rows = KRAWTCHOUK[:1] + KRAWTCHOUK[3:199]  # n = 2, then n = 5..200, each with a root below 1
    error, message = _expected("krawtchouk", 1.0)[0]
    with pytest.raises(error) as info:
        critical_couplings(rows)
    assert str(info.value) == message
    assert layouts == [[]]
    critical_couplings(rows[1:])
    assert layouts[1] == list(range(5, 201))


def test_rows_not_probed_sit_where_no_bracket_overflows():
    # [0, 1e300] fails when its bracket passes 2^27; the row before it, whose root lies near
    # 5e8, is solved without a warning
    rows = [np.arange(5.0) * 1e-9, np.array([0.0, 1e300])]
    error, message = _outcome(scalar_critical_coupling, rows[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            critical_couplings(rows)
    assert str(info.value) == message


def _error_corpus(seed: int = 7) -> list[np.ndarray]:
    """Rows for the errors: named edge cases, then seeded rows of 2-11 eigenvalues from
    [low, 3] with low in {0, -0.3, -1, -3}."""
    rows = [np.arange(2.0), np.array([2.0, 2.0, 2.0]), np.zeros(3), np.full(4, -1.0),
            np.array([0.0, 1.0, 1.0]), np.array([0.0, 0.0, 1.0]),
            np.array([-1.0, 1.0, 1.0]), np.array([-0.6, 0.0, 1.0]), np.array([-2.0, -1.0, 0.0]),
            np.array([0.0, 1e300]), np.array([0.0, 1.0, 1e300]), np.array([-1e300, 0.0, 1.0]),
            np.array([-1e300, 1e300, 1.0]), np.array([1e300, 1e300, 0.0, 5.0]),
            np.array([0.0, np.nan, 2.0]), np.array([np.inf, 1.0, 0.0]),
            np.array([-np.inf, 1.0, 2.0]), np.array([1.0]), np.array([])]
    rng = np.random.default_rng(seed)
    for _ in range(60):
        low = float(rng.choice([0.0, -0.3, -1.0, -3.0]))
        rows.append(rng.uniform(low, 3.0, size=int(rng.integers(2, 12))))
    return rows


@pytest.mark.parametrize("omega", OMEGAS + (0.0, -1.0, math.nan, math.inf, 1e200, 1e-170))
def test_the_error_corpus_raises_the_scalar_bisections_errors(omega):
    """Krawtchouk n = 2, equal eigenvalues, negative lambda_min with and without a root before
    the positive-definiteness limit, +-1e300, nan and inf entries, n < 2, and invalid omega.
    A row with a root gets it, also where the bisection's range of couplings omega^2 2^k
    misses it: [0, 1, 1e300] and [1e300, 1e300, 0, 5] at omega = 1e130, whose root 3e-40 the
    bisection reports as an overflowing bracket, and roots below 2^-200 omega^2, such as
    3e-300, that it reads as 0."""
    for row in _error_corpus():
        got = _outcome(critical_coupling, row, omega)
        if isinstance(got, tuple):
            assert got == _outcome(scalar_critical_coupling, row, omega), row
            assert got[0] is not NoCriticalCouplingError or not phi_root_exists(row), row
        else:  # exact_phi_root checks that phi changes sign there
            _check_c_n(row, got, omega, chain=False)
    assert critical_couplings([], omega) == []


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
    expected = [critical_coupling(decompose(InteractionModel.constant(n)).lambdas)
                for n in range(4, 41)]
    got = [float(row.split(",")[2]) for row in rows]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_a_size_prints_the_same_row_in_every_table(capsys):
    """n = 1481 alone, and after n = 4..1447 in the batch of over 2^20 eigenvalues before it."""
    assert main(["bounds", "--n", "1481", "--format", "csv"]) == 0
    alone = capsys.readouterr().out.splitlines()[1]
    assert main(["bounds", "--n", "4..1447,1481", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == alone
