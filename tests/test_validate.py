"""The built-in oracle suite must be green end to end."""

from toepspec.validate import run_checks


def test_run_checks_all_pass():
    results = run_checks()
    assert len(results) == 13
    failures = [(name, detail) for name, ok, detail in results if not ok]
    assert not failures, f"oracle checks failed: {failures}"
