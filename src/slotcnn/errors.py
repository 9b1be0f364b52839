"""Exception types shared across the package."""


class SlotCnnError(Exception):
    """Base class for every error raised by this package."""


class OversizedInput(SlotCnnError):
    """Input vector does not fit into the available slots or footprint."""


class SlotMismatch(SlotCnnError):
    """Operands have different slot counts."""


class LevelExhausted(SlotCnnError):
    """A multiplication was requested on a ciphertext at level 0."""


class ShapeMismatch(SlotCnnError):
    """Tensor or layer dimensions do not chain together."""


class ParseError(SlotCnnError):
    """A model, parameter, or input file could not be parsed."""


class UnknownModel(SlotCnnError):
    """Requested built-in model name does not exist."""


class FootprintOverflow(SlotCnnError):
    """A single sample needs more slots than one ciphertext provides."""


class NonFiniteInput(SlotCnnError):
    """An input sample holds a NaN or infinite value."""


class CapacityExceeded(SlotCnnError):
    """More samples were packed than the plan has room for."""


class TargetAboveCurrent(SlotCnnError):
    """Level drop requested a target above the current level."""


class PaddingUnsupported(SlotCnnError):
    """A convolution asked for padding other than 0, which no slot schedule executes."""


class NonDivisibleDims(SlotCnnError):
    """Pooling kernel does not divide the input dimensions."""


class NotFlattened(SlotCnnError):
    """A fully-connected layer was applied to a non-flattened layout."""


class UnevenOffsets(SlotCnnError, ValueError):
    """Batch offsets are not evenly spaced at least a footprint apart within the slots."""
