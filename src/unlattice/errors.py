"""Exception types shared across the toolkit."""


class LatticeError(Exception):
    """Base class for all toolkit errors."""

    code = "lattice-error"


class ValidationError(LatticeError):
    """Input refused where it enters; the command line exits 2."""

    code = "validation"


class TagMismatch(ValidationError):
    code = "tag-mismatch"


class NegativeInput(ValidationError):
    code = "negative-input"


class NegativeTestVector(ValidationError):
    code = "negative-test-vector"


class NonStepSequence(ValidationError):
    code = "non-step-sequence"


class RefinementOverflow(ValidationError):
    code = "refinement-overflow"


class MNotFound(LatticeError):
    """No truncation multiple m <= m_max achieves the requested remainder."""

    code = "m-not-found"

    def __init__(self, msg, m_max=None):
        super().__init__(msg)
        self.m_max = m_max


class NotOrderBounded(LatticeError):
    code = "not-order-bounded"

    def __init__(self, msg, witness_index=None):
        super().__init__(msg)
        self.witness_index = witness_index


class NoIndexFound(LatticeError):
    code = "no-index-found"

    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


class NotADecomposition(LatticeError):
    code = "not-a-decomposition"


class NegativePart(LatticeError):
    code = "negative-part"


class HorizonExhausted(LatticeError):
    """The greedy disjointification scan ran out of admissible indices."""

    code = "horizon-exhausted"

    def __init__(self, msg, step=None, partial=None):
        super().__init__(msg)
        self.step = step
        self.partial = partial


class SelectionStalled(LatticeError):
    code = "selection-stalled"

    def __init__(self, msg, step=None, partial=None):
        super().__init__(msg)
        self.step = step
        self.partial = partial


class NoRoom(LatticeError):
    """Translation target lies outside the neighborhood."""

    code = "no-room"
