"""Reader: transmit chain (prism + PZT + PIE/FSK) and receive/decode DSP."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".receiver": ("DEFAULT_SAMPLE_RATE", "ReaderReceiver"),
    ".transmitter": ("ReaderTransmitter",),
})
