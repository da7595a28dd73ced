"""Exception and warning types shared across the package."""


class PerturbregError(Exception):
    """Base class for every error raised by this package."""


class SingularSystem(PerturbregError):
    """The assembled linear system could not be factorized."""


class DegenerateDelta(PerturbregError):
    """Coordination rules need a positive noise level."""


class QOutOfRange(PerturbregError):
    """The margin q = delta * c(alpha) must lie in [0, 1) for the error bound."""


class WindowTooNarrow(PerturbregError):
    """The baseline fit window contains fewer than two samples."""


class DegenerateGram(PerturbregError):
    """The pairing matrix <phi_i, gamma_k> is numerically singular."""


class BiorthogonalityFailed(PerturbregError):
    """No vectors z_i with <z_i, psi_k> = delta_ik could be produced or verified."""


class UnknownExample(PerturbregError):
    """Requested benchmark function id does not exist."""


class SampleOverflow(PerturbregError):
    """Finite samples left the float64 range on the way through differentiation."""


class ProblemFormatError(PerturbregError):
    """A structured problem file failed schema or consistency validation."""


class AlphaTooSmall(UserWarning):
    """alpha fell below the grid spacing: the smoothing kernel is unresolved.

    Warning-grade on purpose; results are still returned, they are just
    dominated by quadrature error instead of noise suppression.
    """
