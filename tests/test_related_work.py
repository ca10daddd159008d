"""Tests for the Table I regeneration."""

from repro.core.related_work import (
    FULL,
    SUPPORTED,
    TABLE_I,
    format_table_i,
)


def test_cryptonn_row_claims():
    row = TABLE_I[-1]  # the row the paper adds
    assert row.name.startswith("CryptoNN")
    assert row.training == SUPPORTED
    assert row.prediction == SUPPORTED
    assert row.privacy == FULL
    assert row.approach == "Functional Encryption"


def test_cryptonn_is_only_fe_approach():
    fe_rows = [r for r in TABLE_I if "Functional" in r.approach]
    assert len(fe_rows) == 1


def test_only_crypto_rows_get_full_privacy():
    for row in TABLE_I:
        if row.privacy == FULL:
            assert ("Encryption" in row.approach or "HE" in row.approach)


def test_he_rows_do_not_train():
    he_only = [r for r in TABLE_I if r.approach.endswith("(HE)")]
    assert he_only and all(r.training == "no" for r in he_only)


def test_format_contains_all_rows_aligned():
    text = format_table_i()
    lines = text.splitlines()
    assert len(lines) == 2 + len(TABLE_I)
    assert len({len(line.rstrip()) <= len(lines[0]) for line in lines}) >= 1
    for row in TABLE_I:
        assert any(row.name in line for line in lines)
