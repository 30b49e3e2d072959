"""The :class:`AccessResult` completion-record contract."""

import pytest

from repro.node import AccessResult


def test_fields_and_default_retries():
    result = AccessResult(100, 350, True, False)
    assert (result.issue_time, result.complete_time) == (100, 350)
    assert result.write is True and result.remote is False
    assert result.retries == 0


def test_keyword_construction_as_the_reliable_path_builds_it():
    result = AccessResult(
        issue_time=1_000,
        complete_time=4_500,
        write=False,
        remote=True,
        retries=3,
    )
    assert result.retries == 3
    assert result.latency == 3_500
    assert result == AccessResult(1_000, 4_500, False, True, 3)


def test_latency_is_complete_minus_issue():
    assert AccessResult(issue_time=7, complete_time=7, write=False, remote=True).latency == 0
    assert AccessResult(issue_time=5, complete_time=12, write=True, remote=True).latency == 7


@pytest.mark.parametrize("field", ["issue_time", "complete_time", "write", "remote", "retries"])
def test_fields_are_read_only(field):
    result = AccessResult(issue_time=1, complete_time=2, write=False, remote=True)
    with pytest.raises(AttributeError):
        setattr(result, field, 9)
