"""Exception taxonomy.

Every error raised by the library derives from IsodescentError so the CLI can
map failures to its exit-code contract in one place.
"""


class IsodescentError(Exception):
    """Base class for all library errors."""


class InvalidDescriptor(IsodescentError):
    """Field descriptor inputs are inconsistent (bad subgroup, bad prime choice,
    incompatible involution, even characteristic...)."""


class NegativeValuation(IsodescentError):
    """Residue reduction requested for an element with v < 0."""


class NoInvolution(IsodescentError):
    """Involution application requested on a descriptor without one."""


class SingularMatrix(IsodescentError):
    """Matrix inversion or basis extraction hit a singular matrix."""


class DimensionMismatch(IsodescentError):
    """Operands live in different ambient dimensions or fields."""


class NotContained(IsodescentError):
    """Quotient length requested for a pair without the required containment."""


class DegenerateForm(IsodescentError):
    """A nondegenerate Gram matrix was required."""


class KindMismatch(IsodescentError):
    """Form kinds cannot be combined the way the caller asked."""


class PreconditionViolated(IsodescentError):
    """A documented operation precondition failed (scaling, containments...)."""


class GroupTooLarge(IsodescentError):
    """Closure enumeration exceeded the configured cap."""


class NotFiniteOrder(IsodescentError):
    """A matrix failed to reach the identity within the order cap."""


class HypothesisViolated(IsodescentError):
    """The 2e < ell - 1 hypothesis is required but does not hold."""


class NotStable(IsodescentError):
    """A lattice expected to be group-stable is not."""


class CharTwo(IsodescentError):
    """Counterexample verifiers require odd characteristic."""


class SearchSpaceTooLarge(IsodescentError):
    """An exhaustive enumeration would exceed its cap."""


class InternalInconsistency(IsodescentError):
    """A certified invariant failed; indicates an implementation bug, not bad input."""


class BundleFormatError(IsodescentError):
    """Problem bundle JSON is malformed; message names the offending field."""
