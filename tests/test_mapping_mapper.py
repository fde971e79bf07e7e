"""Tests for command generation: protocol legality, regime structure,
ablation variants, and functional correctness through the driver."""

import hashlib
import random

import pytest

from repro.api import BatchRequest, NegacyclicRequest, NttRequest, Simulator
from repro.arith import NttParams, find_ntt_prime, mod_pow
from repro.dram import CommandType, HBM2E_ARCH
from repro.errors import MappingError
from repro.mapping import NegacyclicNttMapper, NttMapper, SingleBufferMapper
from repro.mapping.mapper import MapperOptions
from repro.ntt import NegacyclicParams
from repro.ntt import ntt as reference_ntt
from repro.pim import PimParams
from repro.sim import SimConfig

Q = find_ntt_prime(8192, 32)


def make_mapper(n, nb=2, **kw):
    return NttMapper(NttParams(n, Q), HBM2E_ARCH, PimParams(nb_buffers=nb), **kw)


class TestProgramStructure:
    def test_starts_with_param_write(self):
        cmds = make_mapper(256).generate()
        assert cmds[0].ctype is CommandType.PARAM_WRITE

    def test_ends_closed(self):
        cmds = make_mapper(512).generate()
        assert cmds[-1].ctype is CommandType.PRE

    def test_act_pre_balanced(self):
        cmds = make_mapper(1024).generate()
        acts = sum(1 for c in cmds if c.ctype is CommandType.ACT)
        pres = sum(1 for c in cmds if c.ctype is CommandType.PRE)
        assert acts == pres

    def test_c1_count_one_per_atom(self):
        cmds = make_mapper(2048).generate()
        c1s = [c for c in cmds if c.ctype is CommandType.C1]
        assert len(c1s) == 2048 // 8

    def test_c1_root_parameter(self):
        cmds = make_mapper(512).generate()
        root = mod_pow(NttParams(512, Q).omega, 512 // 8, Q)
        for c in cmds:
            if c.ctype is CommandType.C1:
                assert c.omega0 == root

    def test_c2_count(self):
        n = 512
        cmds = make_mapper(n).generate()
        c2s = sum(1 for c in cmds if c.ctype is CommandType.C2)
        # stages 4..9 inclusive = 6 inter-atom stages, n/16 pairs each.
        assert c2s == 6 * n // 16

    def test_single_activation_when_n_fits_row(self):
        cmds = make_mapper(256).generate()
        acts = sum(1 for c in cmds if c.ctype is CommandType.ACT)
        assert acts == 1

    def test_buffer_indices_within_pool(self):
        for nb in (2, 3, 4, 6):
            cmds = make_mapper(512, nb=nb).generate()
            for c in cmds:
                for b in (c.buf, c.buf2):
                    if b is not None:
                        assert 0 <= b < nb

    def test_rejects_single_buffer(self):
        with pytest.raises(MappingError):
            make_mapper(256, nb=1)

    def test_rejects_tiny_n(self):
        with pytest.raises(MappingError):
            NttMapper(NttParams(4, 13), HBM2E_ARCH, PimParams(nb_buffers=2))

    def test_rejects_overflow(self):
        with pytest.raises(MappingError):
            make_mapper(8192, base_row=32766)

    @pytest.mark.parametrize("functional", [False, True])
    @pytest.mark.parametrize("nb", [1, 2, 6])
    def test_rejects_negative_base_row(self, nb, functional):
        """A program must start inside the bank: a negative base row is
        the fit check's MappingError, never a timing-only run over rows
        -3..0 or a functional one that fails only at host I/O."""
        n = 1024
        config = SimConfig(pim=PimParams(nb_buffers=nb), base_row=-3,
                           functional=functional)
        params = NttParams(n, Q)
        requests = [NttRequest(params=params),
                    BatchRequest(params=params, inputs=[[0] * n] * 2)]
        if nb > 1:  # Nb=1 maps cyclic transforms only
            ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
            requests.append(NegacyclicRequest(ring=ring))
        for request in requests:
            with pytest.raises(MappingError, match="does not fit"):
                Simulator(config).run(request)


class TestProtocolLegality:
    """Every generated program must execute without MappingError on both
    the functional bank and the timing engine — run via the driver."""

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 512, 2048])
    @pytest.mark.parametrize("nb", [2, 3, 4, 6])
    def test_functional_correctness(self, n, nb):
        rng = random.Random(n * 100 + nb)
        x = [rng.randrange(Q) for _ in range(n)]
        config = SimConfig(pim=PimParams(nb_buffers=nb))
        result = Simulator(config).run(NttRequest(params=NttParams(n, Q),
                                                  values=x))
        assert result.verified
        assert result.values == reference_ntt(x, NttParams(n, Q))

    @pytest.mark.parametrize("n", [8, 64, 256, 512])
    def test_single_buffer_functional(self, n):
        rng = random.Random(n)
        x = [rng.randrange(Q) for _ in range(n)]
        config = SimConfig(pim=PimParams(nb_buffers=1))
        result = Simulator(config).run(NttRequest(params=NttParams(n, Q),
                                                  values=x))
        assert result.verified

    def test_nonzero_base_row(self):
        rng = random.Random(5)
        n = 512
        x = [rng.randrange(Q) for _ in range(n)]
        config = SimConfig(pim=PimParams(nb_buffers=2), base_row=100)
        result = Simulator(config).run(NttRequest(params=NttParams(n, Q),
                                                  values=x))
        assert result.verified


class TestAblationVariants:
    def test_out_of_place_still_correct(self):
        rng = random.Random(6)
        n = 1024
        x = [rng.randrange(Q) for _ in range(n)]
        config = SimConfig(pim=PimParams(nb_buffers=2),
                           mapper_options=MapperOptions(in_place_update=False))
        result = Simulator(config).run(NttRequest(params=NttParams(n, Q),
                                                  values=x))
        assert result.verified

    def test_out_of_place_result_row_parity(self):
        # 3 inter-row stages at N=2048 -> odd -> result in mirror region.
        m = make_mapper(2048, options=MapperOptions(in_place_update=False))
        assert m.result_base_row == m.base_row + m.rows_used
        # 2 inter-row stages at N=1024 -> even -> result back home.
        m = make_mapper(1024, options=MapperOptions(in_place_update=False))
        assert m.result_base_row == m.base_row

    def test_out_of_place_needs_more_activations(self):
        base = make_mapper(2048).generate()
        noip = make_mapper(
            2048, options=MapperOptions(in_place_update=False)).generate()
        acts = lambda cmds: sum(
            1 for c in cmds if c.ctype is CommandType.ACT)
        assert acts(noip) > 1.3 * acts(base)

    def test_no_grouping_correct_and_slower(self):
        rng = random.Random(7)
        n = 1024
        x = [rng.randrange(Q) for _ in range(n)]
        config = SimConfig(pim=PimParams(nb_buffers=6),
                           mapper_options=MapperOptions(group_same_row=False))
        result = Simulator(config).run(NttRequest(params=NttParams(n, Q),
                                                  values=x))
        assert result.verified

    def test_out_of_place_requires_space(self):
        with pytest.raises(MappingError):
            make_mapper(8192, base_row=32768 - 40,
                        options=MapperOptions(in_place_update=False))


class TestSingleBufferStructure:
    def test_only_buffer_zero(self):
        m = SingleBufferMapper(NttParams(256, Q), HBM2E_ARCH,
                               PimParams(nb_buffers=1))
        for c in m.generate():
            if c.buf is not None:
                assert c.buf == 0

    def test_scalar_uops_present(self):
        m = SingleBufferMapper(NttParams(256, Q), HBM2E_ARCH,
                               PimParams(nb_buffers=1))
        kinds = {c.ctype for c in m.generate()}
        assert CommandType.LOAD_SCALAR in kinds
        assert CommandType.BU_SCALAR in kinds
        assert CommandType.STORE_SCALAR in kinds

    def test_rejects_multi_buffer_config(self):
        with pytest.raises(MappingError):
            SingleBufferMapper(NttParams(256, Q), HBM2E_ARCH,
                               PimParams(nb_buffers=2))


class TestLatencyShape:
    """Relative performance facts the paper's figures rest on."""

    def test_more_buffers_never_slower(self):
        latencies = []
        for nb in (2, 4, 6):
            config = SimConfig(pim=PimParams(nb_buffers=nb),
                               functional=False)
            run = Simulator(config).run(
                NttRequest(params=NttParams(2048, Q)))
            latencies.append(run.cycles)
        assert latencies == sorted(latencies, reverse=True)

    def test_single_buffer_order_of_magnitude_worse(self):
        runs = {}
        for nb in (1, 2):
            config = SimConfig(pim=PimParams(nb_buffers=nb),
                               functional=False)
            runs[nb] = Simulator(config).run(
                NttRequest(params=NttParams(512, Q))).cycles
        assert runs[1] > 7 * runs[2]

    def test_latency_grows_superlinearly_past_row(self):
        """The Fig. 7 kink: N=512 costs >2x N=256 (inter-row onset)."""
        config = SimConfig(pim=PimParams(nb_buffers=2),
                           functional=False)
        sim = Simulator(config)
        t256 = sim.run(NttRequest(params=NttParams(256, Q))).cycles
        t512 = sim.run(NttRequest(params=NttParams(512, Q))).cycles
        assert t512 > 2.2 * t256


class TestPinnedPrograms:
    """The exact mapped programs, pinned by digest.

    Every Nb >= 2 mapping (cyclic under each ablation, merged negacyclic
    forward and inverse) comes out of one row-centric schedule; a change
    to any command field, dependency or result row changes the digest.
    A deliberate change to the mapping updates ``DIGEST`` with it.
    """

    DIGEST = ("3314a964cac39c0745cf8df0bd9d2228"
              "4f0e9225d2807c9d2d281860dc8cd57e")

    @staticmethod
    def _programs():
        q_neg = find_ntt_prime(2048, 32, negacyclic=True)
        options = (MapperOptions(), MapperOptions(in_place_update=False),
                   MapperOptions(group_same_row=False))
        for n in (64, 512, 2048):
            ring = NegacyclicParams(n, q_neg)
            for nb in (2, 4, 6):
                pim = PimParams(nb_buffers=nb)
                for opts in options:
                    yield NttMapper(NttParams(n, Q), HBM2E_ARCH, pim,
                                    base_row=7, options=opts)
                for inverse in (False, True):
                    yield NegacyclicNttMapper(ring, HBM2E_ARCH, pim,
                                              base_row=7, inverse=inverse)

    def test_program_digest(self):
        h = hashlib.sha256()
        count = 0
        for mapper in self._programs():
            for c in mapper.generate():
                h.update(repr((c.ctype.value, c.bank, c.row, c.col, c.buf,
                               c.buf2, c.lane, c.omega0, c.r_omega,
                               c.payload_words, c.gs, c.zetas,
                               c.deps)).encode())
            h.update(f"result_base_row={mapper.result_base_row};".encode())
            count += 1
        assert count == 45
        assert h.hexdigest() == self.DIGEST


class TestPinnedSingleBufferPrograms:
    """The Nb=1 single-buffer programs (LOAD/BU/STORE µ-ops), pinned by
    digest the same way as :class:`TestPinnedPrograms`."""

    DIGEST = ("0712adcda73d83a2bfda45a91a68a918"
              "296cca561443c5c253b908be7bb688a4")

    def test_program_digest(self):
        pim = PimParams(nb_buffers=1)
        h = hashlib.sha256()
        count = 0
        for n in (64, 256, 1024):
            for base_row in (0, 7):
                mapper = SingleBufferMapper(NttParams(n, Q), HBM2E_ARCH, pim,
                                            base_row=base_row)
                for c in mapper.generate():
                    h.update(repr((c.ctype.value, c.bank, c.row, c.col,
                                   c.buf, c.buf2, c.lane, c.omega0,
                                   c.r_omega, c.payload_words, c.gs,
                                   c.zetas, c.deps)).encode())
                h.update(
                    f"result_base_row={mapper.result_base_row};".encode())
                count += 1
        assert count == 6
        assert h.hexdigest() == self.DIGEST
