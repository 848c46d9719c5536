from fractions import Fraction

import pytest

import divprime.verify
from divprime.report import COMPARED_FIELDS
from divprime.verify import (
    MISMATCH,
    ORACLE_SKIPPED,
    VERIFIED,
    verify_n,
    verify_range,
    verify_results,
)


class TestVerifyN:
    def test_twelve(self):
        result = verify_n(12, cap=10000)
        assert result.status == VERIFIED
        assert result.mismatches == ()
        assert len(COMPARED_FIELDS) == 10
        for name in COMPARED_FIELDS:
            assert getattr(result.closed_form, name) == getattr(result.oracle, name)
        assert result.oracle is not None
        assert result.oracle_skipped_reason is None
        assert result.elapsed_closed_form >= 0
        assert result.elapsed_oracle >= 0

    def test_one_all_zero(self):
        result = verify_n(1, cap=10000)
        assert result.status == VERIFIED
        for name in COMPARED_FIELDS:
            expected = Fraction(0) if name == "harary" else 0
            assert getattr(result.closed_form, name) == expected
            assert getattr(result.oracle, name) == expected

    def test_cap_skip(self):
        result = verify_n(2**60, cap=16)
        assert result.status == ORACLE_SKIPPED
        assert result.mismatches == ()
        assert result.oracle is None
        assert result.elapsed_oracle is None
        assert "61" in result.oracle_skipped_reason
        assert "16" in result.oracle_skipped_reason
        # closed-form report still populated
        assert result.closed_form.divisor_count == 61
        assert result.closed_form.wiener == 61 * 60 - 60

    def test_cap_none_forces_oracle(self):
        result = verify_n(2**60, cap=None)
        assert result.status == VERIFIED

    def test_closed_form_cannot_switch_off_the_oracle(self, monkeypatch):
        # The cap is judged on the oracle's own divisor count, never on the
        # path it checks.
        real = divprime.verify.cf_report
        monkeypatch.setattr(
            divprime.verify, "cf_report", lambda f: real(f)._replace(divisor_count=10**6)
        )
        result = verify_n(12)
        assert result.status == VERIFIED
        assert result.oracle.divisor_count == 6
        assert result.oracle_skipped_reason is None

    def test_values_are_exact(self):
        result = verify_n(360, cap=10000)
        assert isinstance(result.closed_form.harary, Fraction)
        assert isinstance(result.closed_form.wiener, int)

    def test_mismatches_follow_compared_fields_order(self, monkeypatch):
        real = divprime.verify.cf_report

        def off_by_one(f):
            report = real(f)
            return report._replace(gutman=report.gutman + 1, wiener=report.wiener + 1)

        monkeypatch.setattr(divprime.verify, "cf_report", off_by_one)
        result = verify_n(30)
        assert result.status == MISMATCH
        assert result.mismatches == ("wiener", "gutman")
        assert result.mismatches == tuple(f for f in COMPARED_FIELDS if f in {"gutman", "wiener"})


class TestVerifyRange:
    def test_mismatches_are_listed(self, monkeypatch):
        real = divprime.verify.cf_report

        def off_by_one(f):
            report = real(f)
            return report._replace(wiener=report.wiener + 1)

        monkeypatch.setattr(divprime.verify, "cf_report", off_by_one)
        summary = verify_range(1, 5)
        assert summary.counts == {VERIFIED: 0, MISMATCH: 5, ORACLE_SKIPPED: 0}
        assert summary.mismatching_n == (1, 2, 3, 4, 5)

    def test_first_hundred(self):
        summary = verify_range(1, 100, cap=10000)
        assert summary.counts == {VERIFIED: 100, MISMATCH: 0, ORACLE_SKIPPED: 0}
        assert summary.mismatching_n == ()
        assert summary.max_divisor_count == 12  # 60, 72, 84, 90, and 96

    def test_single_point(self):
        summary = verify_range(12, 12, cap=10000)
        assert summary.counts[VERIFIED] == 1

    def test_inverted_range(self):
        with pytest.raises(ValueError):
            verify_range(5, 3)
        with pytest.raises(ValueError):
            verify_range(0, 3)
        with pytest.raises(ValueError):
            list(verify_results(9, 3))

    def test_counts_cover_range(self):
        summary = verify_range(40, 60, cap=8)
        assert sum(summary.counts.values()) == 21
        assert summary.counts[ORACLE_SKIPPED] > 0  # 48 has 10 divisors

    def test_deterministic_across_runs(self):
        a = verify_range(1, 60, cap=10000)
        b = verify_range(1, 60, cap=10000)
        assert a.counts == b.counts
        assert a.mismatching_n == b.mismatching_n
        assert a.max_divisor_count == b.max_divisor_count

    def test_results_iterator_matches_summary(self):
        results = list(verify_results(1, 30, cap=10000))
        summary = verify_range(1, 30, cap=10000)
        assert len(results) == 30
        assert sum(r.status == VERIFIED for r in results) == summary.counts[VERIFIED]
