"""Exception types shared across the package."""


class EvprepError(Exception):
    """Base class for all package errors."""


class StreamOrderError(EvprepError):
    """Raised when an event stream is not sorted by timestamp.

    ``index`` is the position of the first inversion (the event whose
    timestamp is smaller than its predecessor's).
    """

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(f"event stream unsorted: inversion at index {self.index}")


class GeometryError(EvprepError):
    """Raised when coordinates or shapes do not match the sensor geometry."""


class FormatError(EvprepError):
    """Raised on malformed input files (EVT1, INTF, TUBE, TOYP, state and scene files)."""


class TrainingDivergedError(EvprepError):
    """Raised when toy training reaches a non-finite loss."""


class SegmentCountError(EvprepError):
    """Raised when a run has more segments than an INTF file can count, or
    its last segment ends past the int64 microsecond clock."""


class FrameRangeError(EvprepError):
    """Raised when an intensity frame holds a value beyond float32's range."""
