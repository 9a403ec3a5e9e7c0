"""Exception hierarchy shared across the codec."""


class PcacError(Exception):
    """Base class for all codec errors."""


# --- sparse tensor construction ---

class DuplicateCoordinate(PcacError):
    pass


class EmptyGeometry(PcacError):
    pass


# --- autodiff ---

class ShapeMismatch(PcacError):
    pass


class NonScalarLoss(PcacError):
    pass


# --- quantizer / likelihood ---

class NonFiniteInput(PcacError):
    pass


class SymbolOutOfRange(PcacError):
    pass


class DegeneratePmf(PcacError):
    pass


# --- range coder / bitstream ---

class InvalidCdf(PcacError):
    pass


class CorruptStream(PcacError):
    pass


class ChecksumFailure(CorruptStream):
    pass


class DesyncError(PcacError):
    """The decoder's CDFs differ from the encoder's: the coded span
    sequence of a chunk does not match the hash stored with it."""


class DigestMismatch(PcacError):
    pass


class ModelMismatch(PcacError):
    pass


# --- point cloud I/O ---

class MalformedHeader(PcacError):
    pass


class MissingProperty(PcacError):
    pass


class UnsupportedFormat(PcacError):
    pass


class OutOfRange(PcacError):
    pass


# --- training ---

class EmptyDataset(PcacError):
    pass
