"""Shared spectrum-line records, integer level classes, and the merge that makes lines.

Every gl(1|n), osp(1|2n) and Fock level is an integer weight class w with an
exact multiplicity and the energy sum_j sqrt(mu_j) (a + w_j) of ``level_energies``.
``LevelClasses`` holds such a class set and its a, built once per representation;
``levels`` merges its energies on a grid of couplings into one table of
spectrum lines, every coupling at once (``merge_classes``).
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

import numpy as np

from .errors import ResourceLimitError
from .spectral import ModeFrequencies

__all__ = ["SpectrumLine", "LevelClasses", "MergedLevels", "MERGE_TOL", "BYTE_BUDGET",
           "check_bytes", "level_energies", "merge_classes", "levels", "spectrum_lines",
           "grow_compositions", "weight_lattice"]

#: energies closer than this many smallest mode quanta hbar min_j sqrt(mu_j) print as one line
MERGE_TOL = 1e-9

#: bytes a gl or osp basis or a Fock model build may hold; a larger one raises ResourceLimitError
BYTE_BUDGET = 2 ** 29


def check_bytes(need: int, what: str) -> None:
    """Raise ResourceLimitError if ``what`` needs more than BYTE_BUDGET bytes."""
    if need > BYTE_BUDGET:
        raise ResourceLimitError(f"{what} need {need} bytes, beyond the {BYTE_BUDGET}-byte guard")


class SpectrumLine(NamedTuple):
    """One energy level: eigenvalue (units of hbar), exact multiplicity, class label.

    ``label`` is the head class of the merged line as plain ints:
    (theta, r) for gl(1|n), (height, signature) for osp(1|2n), an
    occupation tuple for the boson Fock space.
    """

    energy: float
    multiplicity: int
    label: Any


class LevelClasses(NamedTuple):
    """Integer weight classes of the representation V(p), in label order.

    Row i of ``keys`` is the integer key of class i (gl(1|n): theta,
    r_1..r_n; osp(1|2n): height, s_1..s_n), and of ``weights`` its weight w.
    Rows ascend lexicographically, so class indices rank the line labels
    built from them. ``multiplicity`` holds the exact int64 class sizes;
    a level of class w has the energy sum_j sqrt(mu_j) (a + w_j).
    """

    keys: np.ndarray
    weights: np.ndarray
    multiplicity: np.ndarray
    a: float


class MergedLevels(NamedTuple):
    """Lines of a coupling grid: coupling index, head class, energy and summed multiplicity."""

    coupling: np.ndarray
    head: np.ndarray
    energy: np.ndarray
    multiplicity: np.ndarray


def grow_compositions(keys: np.ndarray, left: np.ndarray, parts: int) -> np.ndarray:
    """Extend each row of ``keys`` by ``parts`` slots holding its ``left`` units in every way.

    Children of a row stay in its place and follow each other in
    lexicographic order of the new slots. Each slot keeps its rows' parents
    and values, and the grown array is gathered once, from the last slot back.
    """
    # a row with ``left`` still to place branches, in order, into left + 1
    # rows that put 0..left in the next slot
    slots = []
    for _ in range(parts - 1):
        parent = np.repeat(np.arange(len(left)), left + 1)
        taken = np.arange(len(parent)) - np.repeat(np.cumsum(left + 1) - (left + 1), left + 1)
        slots.append((parent, taken))
        left = left[parent] - taken
    out = np.empty((len(left), keys.shape[1] + parts), np.result_type(keys, left))
    out[:, -1], row = left, slice(None)  # the last slot's rows are the grown rows
    while slots:
        parent, taken = slots.pop()
        out[:, keys.shape[1] + len(slots)], row = taken[row], parent[row]
    out[:, :keys.shape[1]] = keys[row]
    return out


def weight_lattice(n: int, k_max: int, what: str) -> np.ndarray:
    """Every weight w in N^n with sum(w) <= k_max as a row (sum(w), w), rows ascending.

    A lattice whose osp classes exceed BYTE_BUDGET raises ResourceLimitError first.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    # traced peak per row (osp_classes is the one caller): its 6 int64 copies, or in
    # fock_spectrum the V(1) classes, their energies and one SpectrumLine (< 350 + 30 n B)
    check_bytes(8 * (7 * n + 49) * math.comb(k_max + n, n), what)
    heights = np.arange(k_max + 1)
    return grow_compositions(heights[:, None], heights, n)


def level_energies(a: float, weights: np.ndarray, freqs: ModeFrequencies) -> np.ndarray:
    """a sum_j sqrt(mu_j) + w . sqrt(mu) per weight row w (columns) and coupling (rows)."""
    if weights.shape[1] != freqs.n:
        raise ValueError("mode count disagrees with n")
    sqrt_mu = np.atleast_2d(freqs.sqrt_mu)
    # vecdot sums every w . sqrt_mu in one order; w @ sqrt_mu changes it at one coupling
    return (a * sqrt_mu.sum(axis=-1, keepdims=True)
            + np.vecdot(weights.astype(float), sqrt_mu[:, None, :]))


def merge_classes(energies: np.ndarray, multiplicity: np.ndarray,
                  freqs: ModeFrequencies) -> MergedLevels:
    """Spectrum lines of every row of a (couplings, classes) energy grid, as one table.

    Row i holds energies (units of hbar) at coupling i of ``freqs``, classes
    in label order (see ``LevelClasses``); it is sorted on (energy,
    multiplicity, class index) and split wherever consecutive energies
    differ by more than MERGE_TOL min_j sqrt(mu_j) at that coupling; splits
    chain, so one line may span more. A line takes its first member's
    energy and class as head, and the summed multiplicity.
    """
    energies = np.asarray(energies, dtype=float)
    mult = np.broadcast_to(multiplicity, energies.shape)
    rank = np.broadcast_to(np.arange(energies.shape[1]), energies.shape)
    order = np.lexsort((rank, mult, energies), axis=-1)
    ordered = np.take_along_axis(energies, order, axis=-1)
    start = np.ones(ordered.shape, dtype=bool)
    tol = MERGE_TOL * np.atleast_2d(freqs.sqrt_mu).min(axis=-1, keepdims=True)
    start[:, 1:] = np.diff(ordered, axis=-1) > tol
    first = np.flatnonzero(start)
    merged = MergedLevels(coupling=first // energies.shape[1], head=order.ravel()[first],
                          energy=ordered.ravel()[first],
                          multiplicity=np.add.reduceat(multiplicity[order].ravel(), first))
    totals = np.bincount(merged.coupling, weights=merged.multiplicity, minlength=len(energies))
    assert (totals == multiplicity.sum()).all()
    return merged


def levels(classes: LevelClasses, freqs: ModeFrequencies) -> MergedLevels:
    """Lines of ``classes`` at every coupling of ``freqs``, merged at MERGE_TOL."""
    if not math.isfinite(classes.a):
        raise ValueError(f"classes without a finite offset a = {classes.a} have no levels")
    return merge_classes(level_energies(classes.a, classes.weights, freqs),
                         classes.multiplicity, freqs)


def spectrum_lines(merged: MergedLevels, labels: list) -> list[SpectrumLine]:
    """The lines of a one-coupling table as SpectrumLine records, ``labels`` one per line."""
    if merged.coupling.any():
        raise ValueError("spectrum_lines takes the lines of one coupling")
    return [SpectrumLine(energy=e, multiplicity=m, label=label)
            for e, m, label in zip(merged.energy.tolist(), merged.multiplicity.tolist(), labels)]
