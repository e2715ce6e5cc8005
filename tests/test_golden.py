"""``wabench golden``: the one byte-exact gate over the committed goldens.

The cheap members (io, serve) run for real; the determinism and
stack-violation cases patch a producer.  The full four-member check
(``wabench golden check``, about six minutes on one core) is CI's
``golden`` matrix job, not a test here.
"""

import os

import pytest

from repro import golden
from repro.analysis import audit
from repro.errors import HarnessError
from repro.harness.cli import main as wabench

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _committed(name):
    with open(os.path.join(ROOT, golden.GOLDENS[name].path), "rb") as f:
        return f.read()


@pytest.mark.parametrize("name", ["serve", "io"])
def test_edited_golden_fails_check_with_diff(name, tmp_path, monkeypatch,
                                             capsys):
    lines = _committed(name).decode().splitlines(keepends=True)
    index = len(lines) // 2
    original = lines[index].rstrip("\n")
    edited = original[:-1] + ("0" if original[-1] != "0" else "1")
    lines[index] = edited + "\n"
    (tmp_path / golden.GOLDENS[name].path).write_text("".join(lines))
    monkeypatch.chdir(tmp_path)

    assert wabench(["golden", "check", name]) == 1
    out = capsys.readouterr().out
    assert f"  -{edited}\n" in out
    assert f"  +{original}\n" in out
    assert f"refresh: wabench golden update {name}" in out


def _flaky_member(monkeypatch):
    """Replace the serve member with a producer whose warm run differs."""
    calls = []

    def produce(cache_dir, jobs):
        calls.append(jobs)
        return "warm\n" if len(calls) % 3 == 2 else "cold\n"

    monkeypatch.setitem(golden.GOLDENS, "serve",
                        golden.Golden("serve", "SERVE_golden.json", produce))


def test_nondeterministic_producer_fails_check(tmp_path, monkeypatch,
                                               capsys):
    _flaky_member(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "SERVE_golden.json").write_text("cold\n")
    assert wabench(["golden", "check", "serve"]) == 1
    out = capsys.readouterr().out
    assert "DETERMINISM VIOLATION: the warm run diverged" in out


def test_nondeterministic_producer_never_updates(tmp_path, monkeypatch,
                                                 capsys):
    _flaky_member(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "SERVE_golden.json").write_bytes(b"committed\n")
    assert wabench(["golden", "update", "serve"]) == 1
    assert "DETERMINISM VIOLATION" in capsys.readouterr().out
    assert (tmp_path / "SERVE_golden.json").read_bytes() == b"committed\n"


def test_unknown_member_is_one_line_error(capsys):
    assert wabench(["golden", "check", "nosuch"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("wabench: unknown golden 'nosuch'")


def test_update_serve_writes_committed_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert wabench(["golden", "update", "serve"]) == 0
    assert (tmp_path / "SERVE_golden.json").read_bytes() == \
        _committed("serve")


def test_audit_producer_rejects_stack_violation(tmp_path, monkeypatch):
    def violating_suite(size, opt, **_kwargs):
        return audit.SuiteAudit(size=size, opt=opt, records=[{
            "name": "quicksort", "diagnostics": [], "deviations": [],
            "stack_bound_ok": False,
            "stack_violations": [{"function": "main", "static_bound": 3,
                                  "observed": 4}]}])

    monkeypatch.setattr(audit, "run_suite_audit", violating_suite)
    with pytest.raises(HarnessError, match="quicksort"):
        golden.GOLDENS["audit"].produce(str(tmp_path / "cache"), 1)
    monkeypatch.chdir(tmp_path)
    assert wabench(["golden", "update", "audit"]) == 1
    assert not (tmp_path / "AUDIT_baseline.json").exists()

