"""Transducer substrate: PZT discs and the reader's analog drive chain."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".frontend": ("MatchingNetwork", "PowerAmplifier", "TransmitChain"),
    ".pzt": ("PztDisc", "node_disc", "reader_rx_disc", "reader_tx_disc"),
})
