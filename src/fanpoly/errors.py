"""Exception hierarchy.

Every mathematically meaningful failure raises a subclass of FanPolyError
so callers (and the CLI) can tell validation failures apart from plain
programming errors.  Malformed input files raise FormatError instead.
"""


def _detailed(msg, detail):
    """``msg``, followed by ``: detail`` when there is a detail."""
    return f"{msg}: {detail}" if detail else msg


class FanPolyError(Exception):
    """Base class for all validation and computation failures."""


class FormatError(ValueError):
    """A file or JSON document does not match the expected shape."""


class ZeroVector(FanPolyError):
    """A generator or input vector is zero where a nonzero vector is required."""


class NotPointed(FanPolyError):
    """The generated cone contains a line."""


class NotAFace(FanPolyError):
    """A cone expected to be a face of another is not."""


class NotAFan(FanPolyError):
    """Two maximal cones do not intersect in a common face.

    Carries the indices of the offending pair in the (sorted) input list.
    """

    def __init__(self, i, j, detail=""):
        self.pair = (i, j)
        super().__init__(_detailed(f"cones {i} and {j} do not meet in a common face", detail))


class DuplicateCone(FanPolyError):
    """The same cone was listed twice among the maximal cones."""


class TargetNotInFan(FanPolyError):
    """The cone named as a subdivision or star target is not in the fan."""


class ConeNotInFan(FanPolyError):
    """A cone passed to a fan operation is not a cone of that fan."""


class PointNotInterior(FanPolyError):
    """The subdivision point is not a primitive relative-interior point."""


class NotASubdivision(FanPolyError):
    """The claimed subdivision does not tile the target fan."""


class NotComplete(FanPolyError):
    """The operation needs a complete fan."""


class WrongRank(FanPolyError):
    """The operation needs a fan of a specific ambient rank."""


class NotSimplicial(FanPolyError):
    """The operation needs a simplicial fan."""


class LatticeMismatch(FanPolyError):
    """Two polynomials live in different character lattices."""


class FanMismatch(FanPolyError):
    """Two piecewise objects live on different fans."""


class Incompatible(FanPolyError):
    """Piecewise parts disagree on a shared face.

    Carries the two maximal cone ids and the face id where restriction
    fails.
    """

    def __init__(self, sigma, other, tau, detail=""):
        self.cones = (sigma, other)
        self.face = tau
        msg = f"parts on {sigma!r} and {other!r} disagree on face {tau!r}"
        super().__init__(_detailed(msg, detail))


class IncompatibleMultisets(FanPolyError):
    """Bundle multisets disagree on a shared face."""

    def __init__(self, sigma, other, tau):
        self.cones = (sigma, other)
        self.face = tau
        super().__init__(f"multisets on {sigma!r} and {other!r} restrict differently on {tau!r}")


class RayNotFound(FanPolyError):
    """The named ray is not a ray of the fan."""


class IndexOutOfRange(FanPolyError):
    """An index (Chern degree, symmetric function degree, ...) is out of range."""


class NotAPoset(FanPolyError):
    """The covering relation of a multifan contains a cycle or a bad id."""


class FaceBijectionFailure(FanPolyError):
    """A multifan node's lower set does not biject onto the faces of its cone."""

    def __init__(self, node, detail=""):
        self.node = node
        msg = f"lower set of node {node!r} is not in bijection with the faces of its cone"
        super().__init__(_detailed(msg, detail))
