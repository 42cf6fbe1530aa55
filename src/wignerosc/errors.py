"""Exception types shared across the package.

The CLI maps these onto exit codes: numeric failures (a decomposition
that misses its residual bounds or whose LAPACK call fails, loss of
positive definiteness, missing critical coupling, gl energies whose two
forms disagree) exit with 3,
representation-validity failures (unirrep violation, non-unitary
weights) with 4, a build over the byte budget with 2 (usage).
"""


class NumericError(RuntimeError):
    """A numerical procedure failed to converge or produced invalid output."""


class PositiveDefinitenessError(NumericError):
    """The interaction matrix is not positive definite (some mode has mu <= 0)."""


class NoCriticalCouplingError(NumericError):
    """The smallest weight stays positive for every coupling strength."""


class UnirrepError(ValueError):
    """The representation label p does not define a unitary irreducible module."""


class UnitarityError(ValueError):
    """Mixed-sign weights: the unitary real form is lost at this coupling."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds the desk-scale guard."""
