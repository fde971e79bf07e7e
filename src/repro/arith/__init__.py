"""Modular-arithmetic substrate: the BU's math, parameter generation.

Public surface re-exported for convenience::

    from repro.arith import mod_mul, MontgomeryContext, find_ntt_prime, NttParams
"""

from .bitrev import (
    bit_reverse,
    bit_reverse_indices,
    bit_reverse_permute,
    is_power_of_two,
)
from .modmath import (
    egcd,
    is_unit,
    mod_add,
    mod_add_vec,
    mod_inverse,
    mod_mul,
    mod_mul_vec,
    mod_neg,
    mod_pow,
    mod_scale_vec,
    mod_sub,
    mod_sub_vec,
)
from .montgomery import MontgomeryContext, montgomery_reduce
from .primes import (
    DEFAULT_PRIME_14,
    DEFAULT_PRIME_16,
    DEFAULT_PRIME_32,
    find_ntt_prime,
    is_prime,
    ntt_prime_candidates,
)
from .roots import (
    NttParams,
    factorize,
    inverse_root_of_unity,
    is_primitive_root_of_unity,
    primitive_root,
    root_of_unity,
)

__all__ = [
    "bit_reverse",
    "bit_reverse_indices",
    "bit_reverse_permute",
    "is_power_of_two",
    "egcd",
    "is_unit",
    "mod_add",
    "mod_add_vec",
    "mod_inverse",
    "mod_mul",
    "mod_mul_vec",
    "mod_neg",
    "mod_pow",
    "mod_scale_vec",
    "mod_sub",
    "mod_sub_vec",
    "MontgomeryContext",
    "montgomery_reduce",
    "DEFAULT_PRIME_14",
    "DEFAULT_PRIME_16",
    "DEFAULT_PRIME_32",
    "find_ntt_prime",
    "is_prime",
    "ntt_prime_candidates",
    "NttParams",
    "factorize",
    "inverse_root_of_unity",
    "is_primitive_root_of_unity",
    "primitive_root",
    "root_of_unity",
]
