"""Full discrepancy report: row counts, frozen mismatch set, formatting."""

import re

import pytest

from kurepa.discrepancy import MATCH, MISMATCH, DiscrepancyReport
from kurepa.report import (
    full_report,
    table1_rows,
    table4_rows,
    table7_rows,
    table10_rows,
)
from kurepa.sequences import factorial_sum

# Every published claim that recomputation contradicts: regenerating the
# report must reproduce exactly this set, nothing more, nothing less.
EXPECTED_MISMATCH_IDS = (
    "t2.k8e",
    "t3.k8",
    "thm3.8.kseq8e",
    "thm3.9.kseq8",
    "thm3.9.kseq8.alt",
    "thm3.18.aseq5",
    "thm6.7.kseq4",
    "thm6.20.kseq5",
    "table4.wagstaff.n0",
    "table6.fpoly.n0",
    "table7.rpoly.n0",
    "table7.rpoly.n3",
    "table7.rpoly.n4",
    "table7.rpoly.n5",
    "table7.fpoly.n0",
    "cor.fminusone.n3",
    "table8.fminusone.n0",
    "table8.fminusone.n1",
    "table8.fminusone.n2",
    "table8.fminusone.n3",
    "table8.fminusone.n4",
    "table8.fminusone.n5",
    "table8.fminusone.n6",
    "table8.fminusone.n7",
    "table8.fminusone.n8",
    "table9.next.n1",
    "table10.diff1.n0",
    "table10.nextplus1.n0",
    "table10.nextplus1.n1",
    "table10.nextplus1.n2",
    "table10.nextplus1.n3",
    "table10.nextplus1.n4",
    "table10.nextplus1.n5",
    "table10.nextplus1.n6",
    "table10.nextplus1.n7",
    "table10.nextplus1.n8",
    "fourpart.p3.n0",
    "altered.a2.n0",
    "altered.a2.n2",
    "altered.a2.n6",
    "altered.a3.n11",
    "altered.a3.shifted.n11",
    "altered.a3.shifted.n12",
    "altered.a4.n0",
    "altered.a4.n16",
    "altered.a4.n17",
    "altered.a4.n18",
    "altered.a4.n19",
    "altered.a4.n20",
    "conjecture.bound.a4",
    "bseq.gcd.n0",
    "abpair.gcd.n0",
    "pmpair.gcd.n0",
    "deflist.kpoly.n0",
    "deflist.kpoly.n1",
    "deflist.kpoly.n2",
    "deflist.kpoly.n3",
    "deflist.kpoly.n4",
    "deflist.kpoly.n5",
    "deflist.kpoly.n6",
    "deflist.kpoly.n7",
    "table11.fpoly.n0",
    "log.identity.n2",
    "log.identity.n3",
    "log.identity.n4",
    "log.identity.n5",
    "log.identity.n6",
    "log.identity.n7",
    "log.identity.n8",
    "log.aggregate.n5",
    "table12.ordering.n1",
    "table13.invordering.n1",
    "table13.invordering.n3",
    "sec6.kad.aseq5",
    "sec6.fermiagg.kseq8",
)

TOKEN = re.compile(r"^[-0-9a-z_*^.]+$")


@pytest.fixture(scope="module")
def report():
    return full_report()


def test_report_has_expected_size(report):
    assert len(report) == 798


def test_claim_ids_are_unique(report):
    ids = [r.claim_id for r in report]
    assert len(ids) == len(set(ids))


def test_statuses_are_valid(report):
    assert {r.status for r in report} == {MATCH, MISMATCH}


def test_mismatch_set_is_frozen(report):
    got = tuple(r.claim_id for r in report if r.status == MISMATCH)
    assert got == EXPECTED_MISMATCH_IDS


def test_every_mismatch_carries_both_values(report):
    for r in [r for r in report if r.status == MISMATCH]:
        assert r.claimed, r.claim_id
        assert r.computed, r.claim_id
        assert r.claimed != r.computed, r.claim_id


def test_fields_stay_in_csv_charset(report):
    for r in report:
        for field in (r.claim_id, r.location, r.claimed, r.computed):
            assert TOKEN.match(field), (r.claim_id, field)


def test_headline_mismatch_row(report):
    row = next(r for r in report if r.claim_id == "t2.k8e")
    assert (row.claimed, row.computed, row.status) == ("5914", "652", MISMATCH)


def test_table1_all_match():
    for r in table1_rows():
        assert r.status == MATCH, r.as_line()


def test_table4_single_mismatch():
    rows = table4_rows()
    bad = [r for r in rows if r.status == MISMATCH]
    assert [r.claim_id for r in bad] == ["table4.wagstaff.n0"]


def test_nextplus1_notes_say_what_was_printed():
    rows = {r.claim_id: r for r in table10_rows() if r.claim_id.startswith("table10.nextplus1.")}
    for n in range(1, 9):
        rep = rows[f"table10.nextplus1.n{n}"]
        assert rep.claimed == str(factorial_sum(n) + 1)
        assert rep.note == "printed row repeats f_n + 1 rather than advancing the index"
    # at the origin the printed 2 is f_1, not f_0 + 1 = 1
    rep = rows["table10.nextplus1.n0"]
    assert rep.claimed == str(factorial_sum(1)) != str(factorial_sum(0) + 1)
    assert "f_1" in rep.note and "f_n + 1" not in rep.note


def test_table7_polynomial_rows_flagged():
    rows = table7_rows()
    bad = {r.claim_id for r in rows if r.status == MISMATCH}
    assert bad == {
        "table7.rpoly.n0",
        "table7.rpoly.n3",
        "table7.rpoly.n4",
        "table7.rpoly.n5",
        "table7.fpoly.n0",
    }


def test_gcd_equivalence_rows_match(report):
    rows = [r for r in report if r.claim_id.startswith("thm4.17.")]
    assert len(rows) == 61
    for r in rows:
        assert r.status == MATCH, r.as_line()


def test_conjecture_bound_rows(report):
    a0 = next(r for r in report if r.claim_id == "conjecture.bound.a0")
    a4 = next(r for r in report if r.claim_id == "conjecture.bound.a4")
    assert a0.status == MATCH
    assert a4.status == MISMATCH
    assert "n=16" in a4.note


def test_log_aggregate_row(report):
    row = next(r for r in report if r.claim_id == "log.aggregate.n5")
    assert row.claimed.startswith("3.93")
    assert row.computed.startswith("8.47")


def test_as_line_shape(report):
    line = report[0].as_line()
    assert line.count(",") == 4
    assert line.split(",")[0] == report[0].claim_id


def test_bad_status_rejected():
    with pytest.raises(ValueError):
        DiscrepancyReport(
            claim_id="x", location="y", claimed="1", computed="1", status="maybe"
        )


def test_note_excluded_from_equality():
    a = DiscrepancyReport("x", "y", "1", "1", MATCH, note="first")
    b = DiscrepancyReport("x", "y", "1", "1", MATCH, note="second")
    assert a == b


def test_report_is_deterministic(report):
    assert full_report() == report
