"""Shared spectrum-line records, integer level classes, and the merging helpers.

Every gl(1|n) and osp(1|2n) level is an integer weight class with an
exact multiplicity whose energy depends on the coupling only through
sqrt(mu_j). ``LevelClasses`` holds such a class set, built once per
representation; ``merge_classes`` turns a (couplings x classes) energy
grid into spectrum lines for every coupling at once, with the same
result as ``merge_lines`` on each row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

__all__ = ["SpectrumLine", "LevelClasses", "MergedLevels", "merge_lines",
           "merge_classes", "spectrum_lines", "branch", "grow_compositions"]


@dataclass(frozen=True)
class SpectrumLine:
    """One energy level: eigenvalue (units of hbar), exact multiplicity, class label.

    ``label`` is the canonical representative of the merged class and is
    representation-specific: a basis vector for gl(1|n), a
    (height, signature, pattern) triple for osp(1|2n), an occupation
    tuple for the boson Fock space.
    """

    energy: float
    multiplicity: int
    label: Any


class LevelClasses(NamedTuple):
    """Integer weight classes of one representation, in label order.

    Row i of ``keys`` is the integer key of class i (gl(1|n): theta,
    r_1..r_n; osp(1|2n): height, s_1..s_n). Rows ascend
    lexicographically, which is the order of the library labels that
    ``labels(index)`` builds for an array of class indices, so class
    indices rank labels. ``multiplicity`` holds the exact int64 class
    sizes.
    """

    keys: np.ndarray
    multiplicity: np.ndarray
    labels: Callable[[np.ndarray], list]


class MergedLevels(NamedTuple):
    """The lines at one coupling: head class, energy and summed multiplicity of each."""

    head: np.ndarray
    energy: np.ndarray
    multiplicity: np.ndarray


def branch(branches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parent row and rank among its siblings of each child, row i having branches[i] children.

    Children of a row stay in its place, so growing an array by
    ``keys[parent]`` keeps the parents' order.
    """
    parent = np.repeat(np.arange(len(branches)), branches)
    rank = np.arange(len(parent)) - np.repeat(np.cumsum(branches) - branches, branches)
    return parent, rank


def grow_compositions(keys: np.ndarray, left: np.ndarray, parts: int) -> np.ndarray:
    """Extend each row of ``keys`` by ``parts`` slots holding its ``left`` units in every way.

    Children of a row stay in its place and follow each other in
    lexicographic order of the new slots.
    """
    # a row with ``left`` still to place branches, in order, into left + 1
    # rows that put 0..left in the next slot
    for _ in range(parts - 1):
        parent, taken = branch(left + 1)
        keys = np.column_stack((keys[parent], taken))
        left = left[parent] - taken
    return np.column_stack((keys, left))


def merge_lines(raw: list[tuple[float, int, Any]], merge_tol: float) -> list[SpectrumLine]:
    """Collapse (energy, multiplicity, label) triples into sorted spectrum lines.

    The triples are sorted as whole tuples: by energy, then by
    multiplicity, then by label, so an exact energy tie goes to the
    smaller multiplicity before the label is looked at. A triple joins
    the current cluster when its energy exceeds the previous triple's
    by at most ``merge_tol``; clusters therefore chain, and one cluster
    may span more than ``merge_tol``. Each cluster becomes one line with
    the energy and label of its first triple and the summed
    multiplicity.
    """
    if not merge_tol >= 0:
        raise ValueError("merge_tol must be non-negative")
    ordered = sorted(raw)  # labels must be orderable for deterministic ties
    lines: list[SpectrumLine] = []
    cluster: list[tuple[float, int, Any]] = []

    def flush() -> None:
        if cluster:
            energy, _, label = cluster[0]
            lines.append(SpectrumLine(energy=energy,
                                      multiplicity=sum(m for _, m, _ in cluster),
                                      label=label))

    prev = None
    for triple in ordered:
        if prev is not None and triple[0] - prev > merge_tol:
            flush()
            cluster = []
        cluster.append(triple)
        prev = triple[0]
    flush()
    return lines


def merge_classes(energies: np.ndarray, multiplicity: np.ndarray,
                  merge_tol: float) -> list[MergedLevels]:
    """``merge_lines`` applied to every row of a (couplings, classes) energy grid.

    Classes must be in label order (see ``LevelClasses``): each row is
    sorted on (energy, multiplicity, class index), which is merge_lines'
    (energy, multiplicity, label) order, and split wherever consecutive
    energies differ by more than ``merge_tol``.
    """
    if not merge_tol >= 0:
        raise ValueError("merge_tol must be non-negative")
    energies = np.asarray(energies, dtype=float)
    mult = np.broadcast_to(multiplicity, energies.shape)
    rank = np.broadcast_to(np.arange(energies.shape[1]), energies.shape)
    order = np.lexsort((rank, mult, energies), axis=-1)
    ordered = np.take_along_axis(energies, order, axis=-1)
    start = np.ones(ordered.shape, dtype=bool)
    start[:, 1:] = np.diff(ordered, axis=-1) > merge_tol
    first = np.flatnonzero(start)
    sums = np.add.reduceat(multiplicity[order].ravel(), first)
    bounds = np.cumsum(start.sum(axis=-1))[:-1]
    return [MergedLevels(head=h, energy=e, multiplicity=m) for h, e, m in zip(
        np.split(order.ravel()[first], bounds), np.split(ordered.ravel()[first], bounds),
        np.split(sums, bounds))]


def spectrum_lines(classes: LevelClasses, merged: MergedLevels) -> list[SpectrumLine]:
    """The merged lines at one coupling as SpectrumLine records with library labels."""
    return [SpectrumLine(energy=e, multiplicity=m, label=label)
            for e, m, label in zip(merged.energy.tolist(), merged.multiplicity.tolist(),
                                   classes.labels(merged.head))]
