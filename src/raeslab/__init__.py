"""Recurrent-autoencoder context decoding on a small float64 autodiff core.

Three strategies for turning the encoder's fixed-size context vector into a
decoder input sequence (repeat, reshape, convolve-and-transpose) plus a
linear-interpolation fallback, with a benchmark harness that compares their
training speed on synthetic signals.
"""

__version__ = "0.1.0"
