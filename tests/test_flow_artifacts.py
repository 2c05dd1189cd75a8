"""Artifact generation: Verilog, reports, waveforms."""

import os

import pytest

from repro.flow import write_artifacts


@pytest.fixture(scope="module")
def artifacts(small_params, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("artifacts"))
    index = write_artifacts(small_params, directory, wave_cycles=200)
    return directory, index


def test_all_designs_emitted(artifacts):
    directory, index = artifacts
    names = {os.path.basename(f) for f in index.files}
    for slug in ("vhdl_ref", "beh_unopt", "beh_opt", "rtl_unopt",
                 "rtl_opt"):
        assert f"{slug}.v" in names
        assert f"{slug}_gates.v" in names
        assert f"{slug}_reports.txt" in names
    assert "figure10.txt" in names
    assert "INDEX.txt" in names


def test_rtl_verilog_is_wellformed(artifacts):
    directory, _index = artifacts
    text = open(os.path.join(directory, "rtl_opt.v")).read()
    assert text.startswith("//")
    assert "module src_rtl_opt" in text
    assert text.rstrip().endswith("endmodule")


def test_gate_verilog_contains_cells(artifacts):
    directory, _index = artifacts
    text = open(os.path.join(directory, "beh_opt_gates.v")).read()
    assert "module SDFF" in text
    assert "memory macro" in text


def test_reports_contain_area_timing_lint(artifacts):
    directory, _index = artifacts
    text = open(os.path.join(directory, "beh_unopt_reports.txt")).read()
    assert "combinational area" in text
    assert "Timing report" in text
    assert "lint:" in text


def test_waveform_contains_output_activity(artifacts):
    directory, _index = artifacts
    vcd = open(os.path.join(directory, "rtl_opt_gates.vcd")).read()
    assert "$var wire" in vcd
    assert "out_valid" in vcd
    # at least one timestamped change beyond cycle 0
    assert any(line.startswith("#") and line != "#0"
               for line in vcd.splitlines())


def test_figure10_summary(artifacts):
    directory, _index = artifacts
    text = open(os.path.join(directory, "figure10.txt")).read()
    assert "100.0" in text
    assert "VHDL-Ref" in text


def test_code_generating_engine_leaves_compile_cache_report(small_params,
                                                            tmp_path):
    index = write_artifacts(small_params, str(tmp_path), wave_cycles=16,
                            backend="native")
    names = {os.path.basename(f) for f in index.files}
    assert "compile_cache.txt" in names
