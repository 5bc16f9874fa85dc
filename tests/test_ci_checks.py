"""The list of CI's pinned checks in tests/ci_checks.py: unique names,
arguments that svpsido's parser takes, well-formed digests, one check per
demo, and a runner that reports a changed digest under its check's name."""

import re
from pathlib import Path

import pytest

import ci_checks
from ci_checks import CHECKS
from svpsido import cli

ROOT = Path(ci_checks.__file__).resolve().parent.parent


def svpsido_runs(check):
    """The svpsido argument lists that check runs, none for a demo or code."""
    if ci_checks.python_args(check.argv)[:2] != ("-m", "svpsido.cli"):
        return []
    return [check.argv if n is None else (*check.argv, "--threads", str(n))
            for n in check.workers or (None,)]


def test_check_names_are_unique():
    names = [c.name for c in CHECKS] + list(ci_checks.SPECIAL)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("check", [c for c in CHECKS if svpsido_runs(c)], ids=lambda c: c.name)
def test_every_svpsido_argv_parses(check, capsys):
    # an unknown suite or flag fails here, not only in CI; --help exits 0,
    # and a refusal by the parser must be the one the check expects
    for argv in svpsido_runs(check):
        try:
            cli._build_parser().parse_args(list(argv))
        except SystemExit as exc:
            assert exc.code == check.exit
            err = capsys.readouterr().err
            assert exc.code == 0 or ci_checks.last_line(err) == check.stderr


@pytest.mark.parametrize("expr, floor", ci_checks.PARSE_BACK)
def test_every_parse_back_argv_parses(expr, floor):
    cli._build_parser().parse_args(["eval", expr, "--floor", floor])


def test_every_digest_is_a_sha256():
    for check in CHECKS:
        assert check.sha256 == "" or re.fullmatch("[0-9a-f]{64}", check.sha256), check.name


def test_each_demo_has_exactly_one_check():
    demos = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "demos").glob("*.py"))
    named = sorted(c.argv[0] for c in CHECKS if c.argv[0].startswith("demos/"))
    # so each demo check names a file that exists, and no demo goes unpinned
    assert demos and named == demos


def test_a_changed_digest_fails_the_runner(monkeypatch, capsys):
    check = next(c for c in CHECKS if c.name == "eval-deepest-series")
    wrong = check._replace(sha256=check.sha256[:-1] + ("1" if check.sha256[-1] == "0" else "0"))
    found = f"sha256 of the masked stdout: expected {wrong.sha256}, got {check.sha256}"
    assert ci_checks.failures(wrong) == [found]
    monkeypatch.setattr(ci_checks, "CHECKS", [wrong])
    monkeypatch.setattr(ci_checks, "SPECIAL", {})
    assert ci_checks.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL eval-deepest-series", f"     eval-deepest-series: {found}", "0 of 1 checks passed"]
