"""ServeJournal: drain/resume bookkeeping over the append-only journal
(crash safety is tested for both journal kinds in tests/exec/test_journal.py)."""

from repro.serve import (
    OUTCOME_COMPLETED,
    OUTCOME_SHED,
    ServeJournal,
)


def _journal(path, scenario="s1", stamp="stamp-a"):
    return ServeJournal(path, scenario_key=scenario, stamp=stamp)


class TestRoundTrip:
    def test_pending_is_queued_minus_done(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        j = _journal(path)
        j.journal_queued("a:0", tenant="a", batch=0)
        j.journal_queued("a:1", tenant="a", batch=1)
        j.journal_done("a:0", OUTCOME_COMPLETED)
        j.close()

        reopened = _journal(path)
        assert reopened.is_done("a:0")
        assert reopened.outcome("a:0") == OUTCOME_COMPLETED
        assert not reopened.is_done("a:1")
        assert [r["key"] for r in reopened.pending()] == ["a:1"]
        assert (reopened.queued_count, reopened.done_count) == (2, 1)

    def test_duplicate_appends_are_idempotent(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        j = _journal(path)
        j.journal_queued("a:0", tenant="a", batch=0)
        j.journal_queued("a:0", tenant="a", batch=0)
        j.journal_done("a:0", OUTCOME_SHED)
        j.journal_done("a:0", OUTCOME_COMPLETED)  # first outcome wins
        j.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 3  # header + one queued + one done
        assert _journal(path).outcome("a:0") == OUTCOME_SHED
