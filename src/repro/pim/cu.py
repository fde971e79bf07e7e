"""The per-bank Compute Unit: BU + TFG + LSU + scalar registers (Fig. 2).

Functional model of the paper's Algorithms 1 and 2, with the butterfly
in decimation-in-time form ``(a + ω·b, a − ω·b)`` — see DESIGN.md §3 for
why this is the consistent reading of the paper.  Modular multiplies go
through the Montgomery datapath model by default, exactly as the
synthesized BU does (Sec. VI.B); a plain-arithmetic mode exists for
differential testing.

Two tiers execute it.  The scalar methods (``execute_c1``,
``execute_c2``, ``execute_c1n``, the Nb=1 µ-ops) walk the lanes one
butterfly at a time for any modulus: they are the per-command ground
truth that :meth:`repro.pim.bank_pim.PimBank.run` drives.  The stacked
methods (``execute_c1_lanes``, ``execute_c2_stack``,
``execute_c1n_lanes``, ``execute_bu_stack``) run a compiled plan's
fused command groups as NumPy lane kernels, one kernel per command
type; tests hold each equal to its scalar method — values and µ-op
counters.

State registers:

* modulus ``q`` and the Montgomery constants — loaded via PARAM_WRITE,
* the TFG's ``(omega0, r_omega)`` — encoded in each C1/C2 command,
* two scalar operand registers (``reg_a`` used by the Nb=1 micro-op
  sequence).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..arith import vector
from ..arith.montgomery import MontgomeryContext
from ..errors import MappingError
from ..ntt.twiddle import TwiddleGenerator

__all__ = ["ComputeUnit"]


class ComputeUnit:
    """Butterfly engine operating on atom-buffer contents."""

    def __init__(self, atom_words: int, use_montgomery: bool = True):
        if atom_words < 2 or atom_words & (atom_words - 1):
            raise ValueError("atom width must be a power of two >= 2")
        self.atom_words = atom_words
        self.log_atom_words = atom_words.bit_length() - 1
        self.use_montgomery = use_montgomery
        self.q: Optional[int] = None
        self._mont: Optional[MontgomeryContext] = None
        self.reg_a: int = 0  # scalar operand register (Nb=1 path)
        # Statistics the area/power models consume.
        self.bu_ops = 0
        self.load_uops = 0
        self.store_uops = 0
        self.twiddles_generated = 0

    # -- parameter registers -------------------------------------------------
    def set_modulus(self, q: int) -> None:
        """PARAM_WRITE: load q and derive the Montgomery constants.

        The constants are a pure function of ``q``, so they come from the
        shared :meth:`MontgomeryContext.cached` pool — one derivation per
        modulus per process, however many banks are simulated.
        """
        if q <= 2:
            raise MappingError(f"modulus {q} unsupported")
        self.q = q
        self._mont = MontgomeryContext.cached(q) if self.use_montgomery else None

    def _require_modulus(self) -> int:
        if self.q is None:
            raise MappingError("compute command before PARAM_WRITE of q")
        return self.q

    def _mod_mul(self, a: int, b: int) -> int:
        if self._mont is not None:
            return self._mont.mul(a, b)
        return (a * b) % self.q  # type: ignore[operator]

    def _butterfly(self, a: int, b: int, w: int) -> Tuple[int, int]:
        """One CT BU op: two ModAdd/Sub and one ModMult (Fig. 3 right)."""
        q = self.q
        t = self._mod_mul(w, b)
        self.bu_ops += 1
        return (a + t) % q, (a - t) % q  # type: ignore[operator]

    def _butterfly_gs(self, a: int, b: int, w: int) -> Tuple[int, int]:
        """Gentleman-Sande form ``(a + b, (a - b) * w)`` — same adders
        and multiplier with the multiply moved to the output side (an
        input/output mux on the ModMult; used by the inverse merged
        negacyclic transform)."""
        q = self.q
        s = (a + b) % q  # type: ignore[operator]
        d = self._mod_mul((a - b) % q, w)  # type: ignore[operator]
        self.bu_ops += 1
        return s, d

    # -- C1: intra-atom NTT (Algorithm 1) -------------------------------------
    def execute_c1(self, words: List[int], omega0: int, r_omega: int) -> List[int]:
        """Size-Na NTT on one buffer, bit-reversed input -> natural output.

        ``omega0`` is the primitive Na-th root for this sub-transform
        (``ω^(N/Na)`` of the full transform); the TFG derives each
        stage's lane step from it by repeated squaring, and ``r_omega``
        is accepted for ISA compatibility (the printed Algorithm 1 has a
        two-parameter generator; squaring needs only ``omega0``).
        """
        q = self._require_modulus()
        na = self.atom_words
        if len(words) != na:
            raise MappingError(f"C1 needs {na} words, got {len(words)}")
        # Stage s uses lane step g^(Na / 2^s); compute by squaring from g.
        steps = [0] * (self.log_atom_words + 1)
        steps[self.log_atom_words] = omega0 % q
        for s in range(self.log_atom_words - 1, 0, -1):
            steps[s] = self._mod_mul(steps[s + 1], steps[s + 1])
        x = [w % q for w in words]
        for s in range(1, self.log_atom_words + 1):
            m = 1 << (s - 1)
            tfg = TwiddleGenerator(1, steps[s], q)
            for k in range(0, na, 2 * m):
                tfg.reset()  # per-block restart (DESIGN.md note 2)
                for j in range(m):
                    w = tfg.next()
                    self.load_uops += 2
                    a, b = x[k + j], x[k + j + m]
                    x[k + j], x[k + j + m] = self._butterfly(a, b, w)
                    self.store_uops += 2
            self.twiddles_generated += tfg.count
        return x

    # -- C2: inter-atom vectorized BU (Algorithm 2) ---------------------------
    def execute_c2(self, p_words: List[int], s_words: List[int],
                   omega0: int, r_omega: int,
                   gs: bool = False) -> Tuple[List[int], List[int]]:
        """One Na-way BU between buffers P and S, in place.

        Lane ``j`` uses twiddle ``omega0 * r_omega^j`` — the geometric
        run the TFG produces (Algorithm 2's ``ω ← ω · rω``); a constant
        block twiddle is the degenerate case ``r_omega = 1``.  With
        ``gs`` the butterfly uses the Gentleman-Sande form.
        """
        q = self._require_modulus()
        na = self.atom_words
        if len(p_words) != na or len(s_words) != na:
            raise MappingError("C2 operands must be full atoms")
        tfg = TwiddleGenerator(omega0, r_omega, q)
        bu = self._butterfly_gs if gs else self._butterfly
        p_out, s_out = [0] * na, [0] * na
        for j in range(na):
            w = tfg.next()
            self.load_uops += 2
            p_out[j], s_out[j] = bu(p_words[j] % q, s_words[j] % q, w)
            self.store_uops += 2
        self.twiddles_generated += tfg.count
        return p_out, s_out

    # -- C1N: merged negacyclic intra-atom stages (extension) -------------------
    def execute_c1n(self, words: List[int], zetas: Tuple[int, ...],
                    gs: bool = False) -> List[int]:
        """The last (forward, CT) or first (inverse, GS) ``log Na``
        stages of the merged negacyclic transform on one atom.

        ``zetas`` holds the ``Na - 1`` per-block twiddles in the order
        the stages consume them: forward walks strides Na/2, Na/4, ...,
        1 (1 + 2 + 4 zetas for Na = 8); inverse walks strides 1, 2, ...,
        Na/2 (4 + 2 + 1 zetas), with the caller supplying inverse zetas.
        """
        q = self._require_modulus()
        na = self.atom_words
        if len(words) != na:
            raise MappingError(f"C1N needs {na} words, got {len(words)}")
        if len(zetas) != na - 1:
            raise MappingError(
                f"C1N needs {na - 1} zetas, got {len(zetas)}")
        x = [w % q for w in words]
        idx = 0
        strides = ([na >> s for s in range(1, self.log_atom_words + 1)]
                   if not gs else
                   [1 << s for s in range(self.log_atom_words)])
        bu = self._butterfly_gs if gs else self._butterfly
        for length in strides:
            for start in range(0, na, 2 * length):
                zeta = zetas[idx] % q
                idx += 1
                for j in range(start, start + length):
                    self.load_uops += 2
                    x[j], x[j + length] = bu(x[j], x[j + length], zeta)
                    self.store_uops += 2
        self.twiddles_generated += na - 1
        return x

    # -- stacked execution (fused compiled-stream macro-ops) -------------------
    #
    # One call runs a whole fused group of k same-type commands via the
    # stacked repro.arith.vector kernels — C2 on (..., k, Na) arrays, C1
    # and C1N on lane-major (Na, L, k) ones — bit-identical to k scalar
    # execute_c1/c2/c1n calls per bank of the stack.  The µ-op counters
    # advance by the per-command amounts times the number of atoms
    # (``size / Na``), so a stack of B lockstep banks counts exactly B
    # single banks.  Callers (PimBank.run_stream) only take these paths
    # when the lane kernels cover the loaded modulus.

    def _count_atom_stages(self, words: int, twiddles_per_atom: int) -> int:
        """Advance the counters by ``words / Na`` intra-atom transforms
        (C1 or C1N) and return the modulus they run under."""
        q = self._require_modulus()
        k = words // self.atom_words
        flies = (self.atom_words // 2) * self.log_atom_words * k
        self.bu_ops += flies
        self.load_uops += 2 * flies
        self.store_uops += 2 * flies
        self.twiddles_generated += twiddles_per_atom * k
        return q

    def execute_c1_lanes(self, xt, wpack, reduced: bool = False):
        """``k`` fused C1 commands on a lane-major ``(Na, L, k)``
        operand (``L`` banks), in place; ``wpack`` from
        :func:`repro.arith.vector.c1_lanes_wpack`.  ``reduced`` promises
        every word is below q already (no scan)."""
        q = self._count_atom_stages(
            xt.size, (self.atom_words // 2) * self.log_atom_words)
        return vector.c1_lanes_arr(xt, q, wpack, reduced=reduced)

    def execute_c2_stack(self, p2d, s2d, w2d, gs: bool = False,
                         reduced: bool = False):
        """``k`` fused C2 commands; ``w2d`` from
        :func:`repro.arith.vector.c2_stack_wpack`.  ``reduced`` as for
        :meth:`execute_c1_lanes`."""
        q = self._require_modulus()
        lanes = p2d.size
        self.bu_ops += lanes
        self.load_uops += 2 * lanes
        self.store_uops += 2 * lanes
        self.twiddles_generated += lanes
        return vector.c2_stack_arr(p2d, s2d, q, w2d, gs=gs, reduced=reduced)

    def execute_c1n_lanes(self, xt, zt, gs: bool = False,
                          reduced: bool = False):
        """``k`` fused C1N commands on a lane-major ``(Na, L, k)``
        operand (``L`` banks), in place; ``zt`` from
        :func:`repro.arith.vector.c1n_lanes_zpack`.  ``reduced`` as for
        :meth:`execute_c1_lanes`."""
        q = self._count_atom_stages(xt.size, self.atom_words - 1)
        return vector.c1n_lanes_arr(xt, q, zt, gs=gs, reduced=reduced)

    def execute_bu_stack(self, a_arr, b_arr, w2d):
        """``k`` fused BU_SCALAR commands: lane-wise
        ``(a', b') = BU(a, b)`` on 1-D operand arrays.

        Counter semantics match ``k`` :meth:`bu_scalar` calls exactly
        (each advances the BU, one load µ-op for the lane operand, one
        store for the register update, one generated twiddle)."""
        q = self._require_modulus()
        k = a_arr.size
        self.bu_ops += k
        self.load_uops += k
        self.store_uops += k
        self.twiddles_generated += k
        return vector.c2_stack_arr(a_arr, b_arr, q, w2d)

    # -- scalar micro-ops (Nb=1 degenerate mapping) ---------------------------
    def load_scalar(self, value: int) -> None:
        """reg_a <- buffer lane (via the crossbar)."""
        self._require_modulus()
        self.reg_a = value % self.q  # type: ignore[operator]
        self.load_uops += 1

    def bu_scalar(self, b_value: int, omega0: int) -> Tuple[int, int]:
        """BU(reg_a, b); returns (a', b'); reg_a <- a'."""
        q = self._require_modulus()
        a_out, b_out = self._butterfly(self.reg_a, b_value % q, omega0 % q)
        self.reg_a = a_out
        self.load_uops += 1
        self.store_uops += 1
        self.twiddles_generated += 1
        return a_out, b_out

    def store_scalar(self) -> int:
        """Read reg_a out (to a buffer lane)."""
        self._require_modulus()
        self.store_uops += 1
        return self.reg_a
