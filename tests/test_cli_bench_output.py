"""Where the ``fi`` and ``corpus`` commands write their BENCH JSON.

A bare run prints its report and leaves the working directory alone
(run from the repository root it would otherwise replace the
checked-in record); only ``--out DIR`` writes the BENCH file, into
DIR, whatever ``REPRO_BENCH_DIR`` says.
"""

import pytest

from repro.__main__ import main

#: command -> (arguments of a quick run, the BENCH file it may write)
COMMANDS = {
    "fi": (["fi", "--level", "rtl", "--n-faults", "4", "--budget",
            "smoke", "--seed", "1"], "BENCH_fi.json"),
    "corpus": (["corpus", "--n-designs", "1", "--budget", "smoke"],
               "BENCH_corpus.json"),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_DIR", raising=False)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    return cwd


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bare_run_writes_nothing(workdir, command):
    args, _ = COMMANDS[command]
    assert main(args) == 0
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_out_dir_receives_the_bench_json(workdir, tmp_path, monkeypatch,
                                         command):
    # REPRO_BENCH_DIR redirects only the figure benches, never --out
    elsewhere = tmp_path / "elsewhere"
    monkeypatch.setenv("REPRO_BENCH_DIR", str(elsewhere))
    args, bench = COMMANDS[command]
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 0
    assert (out / bench).is_file()
    assert list(workdir.iterdir()) == []
    assert not elsewhere.exists()
