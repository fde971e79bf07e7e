"""Builder helpers for dependent op-graphs (:class:`repro.api.DagRequest`).

The graphs real FHE/lattice services serve, assembled from the existing
primitives:

* :func:`ckks_mul_chain` — CKKS/BGV-style ciphertext chains: per RNS
  limb, ``depth`` levels of multiply → relinearize (key-switch by the
  evaluation key) → rescale, each level consuming the previous one's
  output.  Limbs are independent chains (one ring per RNS modulus, via
  :class:`repro.fhe.rns.RnsBasis`), so the graph exposes exactly the
  limb-per-bank parallelism of the paper's Sec. VI.A deployment.
* :func:`kem_batch` — a width-only graph of independent Kyber-style KEM
  ring products (the ``kyber_kem`` workload): all roots, no edges — the
  batch shape a KEM endpoint serves.
* :func:`ntt_pipeline` — a linear chain of alternating forward/inverse
  cyclic NTTs over one hot ring; every stage is batchable, so
  concurrent pipelines coalesce stage-by-stage in the serving layer.

Every builder is deterministic given ``seed``; random operands are
read-only uint64 arrays (:func:`repro.arith.vector.random_residues`).
Nodes that receive an edge binding carry zero placeholders of the right
length; the serving layer (and the golden model) overwrite them with
the parent's actual output at execution time.
"""

from __future__ import annotations

import random
from functools import lru_cache

from ..api.dag import DagEdge, DagRequest
from ..api.requests import FheOpRequest, KyberKemRequest, NttRequest
from ..arith.primes import find_ntt_prime
from ..arith.roots import NttParams
from ..arith.vector import random_residues
from ..fhe.rns import RnsBasis
from ..ntt.negacyclic import NegacyclicParams

__all__ = ["DagEdge", "DagRequest", "ckks_mul_chain", "kem_batch",
           "ntt_pipeline"]


@lru_cache(maxsize=None)
def _rns_basis(n: int, limbs: int, bits: int) -> RnsBasis:
    return RnsBasis.generate(n, limbs, bits)


@lru_cache(maxsize=None)
def _chain_params(n: int) -> NttParams:
    return NttParams(n, find_ntt_prime(n, 32))


def ckks_mul_chain(n: int = 256, limbs: int = 2, depth: int = 1, *,
                   seed: int = 0, bits: int = 30,
                   label: str = "") -> DagRequest:
    """A CKKS-style homomorphic multiply chain as a :class:`DagRequest`.

    Per RNS limb ``l`` (its own negacyclic ring), ``depth`` levels of

    ``mul{d}_l{l}``     — ciphertext × plaintext ring multiply,
    ``relin{d}_l{l}``   — relinearize: multiply by the evaluation key,
    ``rescale{d}_l{l}`` — rescale: inverse transform of the result,

    with each level's ``mul`` consuming the previous level's
    ``rescale`` output.  Limbs are independent chains, so the critical
    path is one limb's chain while total work is ``limbs`` times that
    — the parallelism the dependency-aware scheduler should recover.
    """
    if limbs < 1 or depth < 1:
        raise ValueError("limbs and depth must be >= 1")
    rng = random.Random(f"ckks:{seed}:{n}:{limbs}:{depth}")
    basis = _rns_basis(n, limbs, bits)
    zeros = (0,) * n
    nodes = []
    edges = []
    for limb, ring in enumerate(basis.rings):
        previous = None
        for level in range(depth):
            mul = f"mul{level}_l{limb}"
            relin = f"relin{level}_l{limb}"
            rescale = f"rescale{level}_l{limb}"
            # Level 0 multiplies a fresh ciphertext limb; later levels
            # bind `a` from the previous rescale.
            ct = random_residues(rng, n, ring.q) if previous is None else zeros
            nodes.append((mul, FheOpRequest(
                ring=ring, op="multiply", a=ct,
                b=random_residues(rng, n, ring.q))))
            nodes.append((relin, FheOpRequest(
                ring=ring, op="multiply", a=zeros,
                b=random_residues(rng, n, ring.q))))
            nodes.append((rescale, FheOpRequest(
                ring=ring, op="inverse", a=zeros)))
            if previous is not None:
                edges.append(DagEdge(previous, mul, field="a"))
            edges.append(DagEdge(mul, relin, field="a"))
            edges.append(DagEdge(relin, rescale, field="a"))
            previous = rescale
    return DagRequest(nodes=tuple(nodes), edges=tuple(edges),
                      label=label or f"ckks[{n}x{limbs}x{depth}]")


def kem_batch(count: int = 4, *, n: int = 256, q: int = 3329,
              depth: int = 2, seed: int = 0,
              label: str = "") -> DagRequest:
    """A width-only DAG of ``count`` independent Kyber-style KEM ring
    products — all roots, no edges (the batch a KEM endpoint decrypts
    in one go)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(f"kem:{seed}:{n}:{count}")
    nodes = tuple(
        (f"kem{i}", KyberKemRequest(a=random_residues(rng, n, q),
                                    b=random_residues(rng, n, q),
                                    n=n, q=q, depth=depth))
        for i in range(count))
    return DagRequest(nodes=nodes, label=label or f"kem[{count}x{n}]")


def ntt_pipeline(n: int = 512, stages: int = 3, *, seed: int = 0,
                 label: str = "") -> DagRequest:
    """A linear chain of ``stages`` alternating forward/inverse cyclic
    NTTs over one hot ring — every stage batchable, so concurrent
    pipelines coalesce stage-by-stage in the serving layer."""
    if stages < 1:
        raise ValueError("stages must be >= 1")
    params = _chain_params(n)
    rng = random.Random(f"pipeline:{seed}:{n}:{stages}")
    nodes = [("stage0", NttRequest(params=params,
                                   values=random_residues(rng, n, params.q)))]
    edges = []
    for i in range(1, stages):
        nodes.append((f"stage{i}", NttRequest(params=params, values=None,
                                              inverse=bool(i % 2))))
        edges.append(DagEdge(f"stage{i - 1}", f"stage{i}", field="values"))
    return DagRequest(nodes=tuple(nodes), edges=tuple(edges),
                      label=label or f"pipeline[{n}x{stages}]")
