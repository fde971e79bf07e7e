"""Tests for bank storage semantics."""

import pytest

from repro.dram import BankStorage, HBM2E_ARCH
from repro.errors import MappingError


class TestBankStorage:
    def test_activate_read(self):
        bank = BankStorage(HBM2E_ARCH)
        bank.host_write_polynomial(3, list(range(16)))
        bank.activate(3)
        assert bank.read_atom(3, 0) == list(range(8))
        assert bank.read_atom(3, 1) == list(range(8, 16))
        bank.precharge()

    def test_write_visible_after_precharge(self):
        bank = BankStorage(HBM2E_ARCH)
        bank.activate(7)
        bank.write_atom(7, 2, [9] * 8)
        bank.precharge()
        assert bank.host_read_polynomial(7, 24)[16:] == [9] * 8

    def test_row_buffer_isolation_until_precharge(self):
        """Writes land in the row buffer; the array copy happens at PRE."""
        bank = BankStorage(HBM2E_ARCH)
        bank.activate(1)
        bank.write_atom(1, 0, [5] * 8)
        # Reading through the open row sees the new data immediately.
        assert bank.read_atom(1, 0) == [5] * 8
        bank.precharge()
        assert bank.host_read_polynomial(1, 8) == [5] * 8

    def test_double_activate_rejected(self):
        bank = BankStorage(HBM2E_ARCH)
        bank.activate(0)
        with pytest.raises(MappingError):
            bank.activate(1)

    def test_precharge_without_open_row(self):
        with pytest.raises(MappingError):
            BankStorage(HBM2E_ARCH).precharge()

    def test_column_access_wrong_row(self):
        bank = BankStorage(HBM2E_ARCH)
        bank.activate(0)
        with pytest.raises(MappingError):
            bank.read_atom(1, 0)

    def test_column_access_closed_bank(self):
        with pytest.raises(MappingError):
            BankStorage(HBM2E_ARCH).read_atom(0, 0)

    def test_column_out_of_range(self):
        bank = BankStorage(HBM2E_ARCH)
        bank.activate(0)
        with pytest.raises(MappingError):
            bank.read_atom(0, 32)

    def test_wrong_atom_size_write(self):
        bank = BankStorage(HBM2E_ARCH)
        bank.activate(0)
        with pytest.raises(MappingError):
            bank.write_atom(0, 0, [1, 2, 3])

    def test_host_access_requires_closed_bank(self):
        bank = BankStorage(HBM2E_ARCH)
        bank.activate(0)
        with pytest.raises(MappingError):
            bank.host_read_polynomial(0, 8)

    def test_polynomial_roundtrip(self):
        bank = BankStorage(HBM2E_ARCH)
        data = list(range(1000))
        bank.host_write_polynomial(10, data)
        assert bank.host_read_polynomial(10, 1000) == data

    def test_polynomial_spans_rows(self):
        bank = BankStorage(HBM2E_ARCH)
        data = list(range(512))
        bank.host_write_polynomial(0, data)
        assert bank.host_read_polynomial(1, 8) == list(range(256, 264))
