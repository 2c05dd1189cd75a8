"""Pin the CLI contract of the self-checking entry points.

``python -m repro verify --self-check`` and ``python -m repro fi
--self-check`` are the flow's own mutation-testing gates; CI scripts
key off their exit codes.  These tests pin both directions: a healthy
flow exits 0, and a self-check that fails to catch its planted fault
must exit 1 -- a regression here would let a broken checker pass
silently forever.
"""

import pytest

from repro.__main__ import main
from repro.fi import CampaignConfig, CampaignError, run_fi_self_check
from repro.fi.faults import Fault
from repro.fi.report import FaultRecord, SelfCheckResult
from repro.src_design.params import SMALL_PARAMS
from repro.verify import SelfCheckReport


def test_unknown_command_exits_nonzero(capsys):
    assert main(["definitely-not-a-command"]) == 1
    assert "Usage" in capsys.readouterr().out


def test_verify_self_check_catches_mutation(capsys):
    assert main(["verify", "--self-check", "--small",
                 "--budget", "smoke", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "mutation" in out.lower()


def test_fi_self_check_classifies_known_faults(tmp_path, capsys):
    # --out keeps BENCH_fi.json out of the repository root
    assert main(["fi", "--self-check", "--small", "--level", "gate",
                 "--n-faults", "8", "--budget", "smoke",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "BENCH_fi.json").exists()
    assert "self-check" in capsys.readouterr().out


def test_verify_self_check_uncaught_mutation_exits_one(monkeypatch):
    import repro.verify as verify

    def missed(config):
        return SelfCheckReport(config=config, mutations_tried=3,
                               caught=False)

    monkeypatch.setattr(verify, "run_self_check", missed)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--self-check", "--small", "--budget", "smoke"])
    assert exc.value.code == 1


def test_fi_self_check_misclassification_exits_one(monkeypatch,
                                                   tmp_path):
    import repro.fi as fi

    def misclassified(config):
        sdc = Fault(index=0, model="stuck0", level="gate",
                    target_kind="net", target="n1", uid=1)
        masked = Fault(index=1, model="stuck1", level="gate",
                      target_kind="net", target="n2", uid=2)
        # both land as masked: the known-SDC fault was NOT caught
        return SelfCheckResult(
            sdc_record=FaultRecord(fault=sdc, outcome="masked"),
            masked_record=FaultRecord(fault=masked, outcome="masked"))

    monkeypatch.setattr(fi, "run_fi_self_check", misclassified)
    with pytest.raises(SystemExit) as exc:
        main(["fi", "--self-check", "--small", "--level", "gate",
              "--n-faults", "8", "--budget", "smoke", "--seed", "3",
              "--out", str(tmp_path)])
    assert exc.value.code == 1


@pytest.mark.parametrize("level", ["rtl", "beh"])
def test_fi_self_check_off_gate_level_is_a_usage_error(level, monkeypatch,
                                                       capsys):
    """The self-check's faults are gate nets: asking for it at another
    level is a one-line usage error before any campaign runs, and the
    library entry point refuses such a config."""
    import repro.fi as fi

    def ran(config):
        raise AssertionError("a campaign ran")

    monkeypatch.setattr(fi, "run_campaign", ran)
    with pytest.raises(SystemExit) as exc:
        main(["fi", "--self-check", "--small", "--level", level,
              "--n-faults", "4", "--budget", "smoke"])
    assert exc.value.code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and level in err[0]
    with pytest.raises(CampaignError, match="gate"):
        run_fi_self_check(CampaignConfig(params=SMALL_PARAMS, level=level,
                                         n_faults=4, budget="smoke"))
