"""NTT kernels: golden models, ring arithmetic, the on-the-fly twiddle
generator."""

from .incomplete import (
    IncompleteNttParams,
    incomplete_basemul,
    incomplete_intt,
    incomplete_ntt,
)
from .merged import (
    block_zeta,
    block_zeta_exponent,
    merged_negacyclic_intt,
    merged_negacyclic_ntt,
    merged_pointwise_multiply,
)
from .negacyclic import (
    NegacyclicParams,
    naive_negacyclic_convolution,
    negacyclic_convolution,
    negacyclic_intt,
    negacyclic_ntt,
    psi_power_table,
)
from .polynomial import Polynomial
from .reference import (
    cyclic_convolution,
    direct_ntt,
    intt,
    naive_cyclic_convolution,
    ntt,
    ntt_dif_natural_input,
    ntt_dit_bitrev_input,
    recursive_ntt,
)
from .twiddle import TwiddleGenerator

__all__ = [
    "IncompleteNttParams",
    "incomplete_basemul",
    "incomplete_intt",
    "incomplete_ntt",
    "block_zeta",
    "block_zeta_exponent",
    "merged_negacyclic_intt",
    "merged_negacyclic_ntt",
    "merged_pointwise_multiply",
    "NegacyclicParams",
    "naive_negacyclic_convolution",
    "negacyclic_convolution",
    "negacyclic_intt",
    "negacyclic_ntt",
    "psi_power_table",
    "Polynomial",
    "cyclic_convolution",
    "direct_ntt",
    "intt",
    "naive_cyclic_convolution",
    "ntt",
    "ntt_dif_natural_input",
    "ntt_dit_bitrev_input",
    "recursive_ntt",
    "TwiddleGenerator",
]
