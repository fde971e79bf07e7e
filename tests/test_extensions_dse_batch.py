"""Tests for the DSE sweeps, batched execution, BFV ciphertext
multiplication, and the rank-level activation throttles (tRRD/tFAW)."""

import random

import pytest

from repro.api import BatchRequest, NttRequest, Simulator
from repro.arith import NttParams, find_ntt_prime
from repro.compile.lower import concat_irs
from repro.dram import Command, CommandType, HBM2E_ARCH, HBM2E_TIMING, TimingEngine
from repro.experiments.dse import run_atom_size_sweep, run_row_size_sweep
from repro.fhe import RlweParams, RlweScheme
from repro.mapping import MapperOptions
from repro.ntt import naive_negacyclic_convolution
from repro.pim import PimParams
from repro.sim import SimConfig
from repro.sim.batch import concat_programs
from repro.sim.driver import TransformSpec, _run_dispatch

Q = find_ntt_prime(2048, 32)


class TestDse:
    @pytest.fixture(scope="class")
    def row_sweep(self):
        return run_row_size_sweep(n=1024, columns=(8, 16, 32, 64))

    @pytest.fixture(scope="class")
    def atom_sweep(self):
        return run_atom_size_sweep(n=1024)

    def test_row_size_claims(self, row_sweep):
        assert all(row_sweep.check_claims().values())

    def test_hbm_row_matches_main_results(self, row_sweep):
        # The 32-column point must equal the headline Fig. 7 number.
        assert row_sweep.latency_us[32] == pytest.approx(30.21, rel=0.02)

    def test_small_rows_cost_activations(self, row_sweep):
        assert row_sweep.activations[8] > 2 * row_sweep.activations[64]

    def test_atom_size_claims(self, atom_sweep):
        assert all(atom_sweep.check_claims().values())

    def test_wider_atom_halves_latency(self, atom_sweep):
        assert atom_sweep.latency_us[64] < 0.6 * atom_sweep.latency_us[32]

    def test_tables_render(self, row_sweep, atom_sweep):
        assert "columns_per_row" in row_sweep.table()
        assert "atom_bytes" in atom_sweep.table()


class TestBatch:
    def test_batch_verified(self):
        n = 512
        params = NttParams(n, Q)
        rng = random.Random(1)
        inputs = [[rng.randrange(Q) for _ in range(n)] for _ in range(3)]
        result = _run_dispatch([inputs], [TransformSpec(params=params)],
                               SimConfig())
        assert result.verified
        assert result.slots == 3

    def test_no_throughput_loss(self):
        n = 512
        params = NttParams(n, Q)
        config = SimConfig(functional=False)
        result = Simulator(config).run(
            BatchRequest(params=params, inputs=[[0] * n] * 4))
        # Back-to-back transforms must not be slower per transform than
        # single-shot (and the PARAM amortization gives a sliver back).
        assert result.metrics["amortization"] >= 0.98

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            _run_dispatch([[]], [TransformSpec(params=NttParams(256, Q))],
                          SimConfig())

    @pytest.mark.parametrize("n", [512, 1024, 2048])
    def test_out_of_place_batch_matches_standalone(self, n):
        # The out-of-place ablation writes every other inter-row stage to
        # a mirror region: slots must not overlap it, and each result is
        # read where its program leaves it.
        params = NttParams(n, Q)
        config = SimConfig(mapper_options=MapperOptions(
            in_place_update=False))
        rng = random.Random(n)
        inputs = [[rng.randrange(Q) for _ in range(n)] for _ in range(3)]
        sim = Simulator(config)
        batch = sim.run(BatchRequest(params=params, inputs=inputs))
        assert batch.outputs == [
            sim.run(NttRequest(params=params, values=x)).values
            for x in inputs]

    def test_concat_skips_duplicate_params(self):
        prog = [Command(CommandType.PARAM_WRITE, payload_words=6),
                Command(CommandType.ACT, row=0),
                Command(CommandType.PRE, deps=(1,))]
        merged = concat_programs([prog, prog])
        kinds = [c.ctype for c in merged]
        assert kinds.count(CommandType.PARAM_WRITE) == 1
        # Second program's PRE dep re-indexed to its own ACT (index 3 —
        # the duplicate PARAM_WRITE was dropped, shifting it down).
        assert merged[-1].deps == (3,)

    @pytest.mark.parametrize("count", [1, 2, 3, 5])
    def test_every_program_after_the_first_drops_its_param_write(self,
                                                                 count):
        """Both concats, the per-command reference and the IR merge,
        load the modulus registers once however many transforms one
        bank runs back to back."""
        program = TransformSpec(params=NttParams(256, Q)).program(
            SimConfig())
        merged = concat_programs([list(program.commands)] * count)
        kinds = [c.ctype for c in merged]
        assert kinds[0] is CommandType.PARAM_WRITE
        assert kinds.count(CommandType.PARAM_WRITE) == 1
        assert len(merged) == count * len(program.commands) - (count - 1)
        assert concat_irs([program.ir] * count).materialize_commands() == \
            tuple(merged)


class TestBfvMultiply:
    def _scheme(self, seed=0):
        n = 32
        q = find_ntt_prime(n, 40, negacyclic=True)
        return RlweScheme(RlweParams(n, q, 17, noise_bound=2),
                          random.Random(seed)), n

    def test_ct_ct_product_decrypts(self):
        s, n = self._scheme(1)
        keys = s.keygen()
        rng = random.Random(2)
        m1 = [rng.randrange(17) for _ in range(n)]
        m2 = [rng.randrange(17) for _ in range(n)]
        ct = s.multiply(s.encrypt(m1, keys), s.encrypt(m2, keys))
        assert ct.c2 is not None
        assert s.decrypt(ct, keys) == naive_negacyclic_convolution(m1, m2, 17)

    def test_degree2_addition(self):
        s, n = self._scheme(3)
        keys = s.keygen()
        m = [1] * n
        ct = s.multiply(s.encrypt(m, keys), s.encrypt(m, keys))
        total = ct + ct
        expected = [(2 * v) % 17 for v in
                    naive_negacyclic_convolution(m, m, 17)]
        assert s.decrypt(total, keys) == expected

    def test_degree_mismatch_rejected(self):
        s, n = self._scheme(4)
        keys = s.keygen()
        deg1 = s.encrypt([1], keys)
        deg2 = s.multiply(deg1, deg1)
        with pytest.raises(ValueError):
            _ = deg1 + deg2
        with pytest.raises(ValueError):
            s.multiply(deg2, deg1)


class TestActivationThrottles:
    def _engine(self):
        return TimingEngine(HBM2E_TIMING, HBM2E_ARCH)

    def test_trrd_between_bank_acts(self):
        res = self._engine().simulate([
            Command(CommandType.ACT, bank=0, row=0),
            Command(CommandType.ACT, bank=1, row=0),
        ])
        gap = res.timings[1].issue - res.timings[0].issue
        assert gap >= HBM2E_TIMING.trrd

    def test_tfaw_over_five_acts(self):
        cmds = [Command(CommandType.ACT, bank=b, row=0) for b in range(5)]
        res = self._engine().simulate(cmds)
        window = res.timings[4].issue - res.timings[0].issue
        assert window >= HBM2E_TIMING.tfaw

    def test_same_bank_acts_unaffected(self):
        """tRAS+tRP dominate tRRD/tFAW for single-bank reuse — the paper's
        single-bank results do not change."""
        res = self._engine().simulate([
            Command(CommandType.ACT, bank=0, row=0),
            Command(CommandType.PRE, bank=0),
            Command(CommandType.ACT, bank=0, row=1),
        ])
        gap = res.timings[2].issue - res.timings[0].issue
        assert gap >= HBM2E_TIMING.tras + HBM2E_TIMING.trp

    def test_retimed_scales_throttles(self):
        t = HBM2E_TIMING.retimed(600.0)
        assert t.trrd == 2
        assert t.tfaw == 8
