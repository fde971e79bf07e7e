"""NTT-PIM reproduction: row-centric NTT mapping on DRAM PIM (DAC 2023).

Top-level convenience surface (the :mod:`repro.api` facade)::

    from repro import NttParams, NttRequest, Simulator, find_ntt_prime

    params = NttParams(1024, find_ntt_prime(1024, 32))
    response = Simulator().run(NttRequest(params=params,
                                          values=list(range(1024))))
    print(response.summary())

Subpackages:

* :mod:`repro.api`        — the public facade: Simulator + typed requests

* :mod:`repro.arith`      — modular arithmetic, Montgomery, primes, roots
* :mod:`repro.ntt`        — golden NTT kernels, variants, ring polynomials
* :mod:`repro.dram`       — DRAM geometry/timing/energy + timing engine
* :mod:`repro.pim`        — atom buffers, compute unit, PIM bank
* :mod:`repro.mapping`    — the paper's mapping algorithm (3 regimes)
* :mod:`repro.sim`        — driver, results, bank-level parallelism
* :mod:`repro.baselines`  — x86 / MeNTT / CryptoPIM / FPGA models
* :mod:`repro.cost`       — area (Table II) and power models
* :mod:`repro.fhe`        — BFV-style RLWE workload layer
* :mod:`repro.experiments`— one harness per paper table/figure
* :mod:`repro.visual`     — ASCII timing diagrams and plots
"""

from .arith import DEFAULT_PRIME_32, NttParams, find_ntt_prime
from .dram import HBM2E_ARCH, HBM2E_TIMING, ArchParams, TimingParams
from .errors import (
    FunctionalMismatch,
    MappingError,
    ReproError,
    RequestValidationError,
)
from .ntt import NegacyclicParams, Polynomial, intt, ntt
from .pim import PimParams
from .sim import SimConfig
from .api import (
    BatchRequest,
    FheOpRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    ProgramRequest,
    SimRequest,
    SimResponse,
    Simulator,
    register_workload,
    workload_names,
)

__version__ = "1.1.0"

__all__ = [
    "DEFAULT_PRIME_32",
    "NttParams",
    "find_ntt_prime",
    "HBM2E_ARCH",
    "HBM2E_TIMING",
    "ArchParams",
    "TimingParams",
    "FunctionalMismatch",
    "MappingError",
    "ReproError",
    "RequestValidationError",
    "NegacyclicParams",
    "Polynomial",
    "intt",
    "ntt",
    "PimParams",
    "SimConfig",
    "SimRequest",
    "NttRequest",
    "NegacyclicRequest",
    "BatchRequest",
    "MultiBankRequest",
    "FheOpRequest",
    "ProgramRequest",
    "SimResponse",
    "Simulator",
    "register_workload",
    "workload_names",
    "__version__",
]
