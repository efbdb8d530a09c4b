"""The example scripts must run end-to-end (they are documentation)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "All three backends agree" in out
    assert "boost/vpfloat" in out


def test_cg_precision_explorer(capsys):
    run_example("cg_precision_explorer.py", ["24", "1e8"])
    out = capsys.readouterr().out
    assert "Runtime minimum" in out
    assert "Boost/vpfloat" in out


def test_accuracy_vs_precision(capsys):
    run_example("accuracy_vs_precision.py", ["trisolv", "8"])
    out = capsys.readouterr().out
    assert "log10(residual)" in out


def test_unum_coprocessor_tour(capsys):
    run_example("unum_coprocessor_tour.py")
    out = capsys.readouterr().out
    assert "sucfg" in out          # the generated assembly is shown
    assert "Byte-budget sweep" in out


def test_format_shootout(capsys):
    run_example("format_shootout.py", ["32"])
    out = capsys.readouterr().out
    assert "wide dynamic range" in out
    # All three contenders appear in each table.
    assert out.count("unum  <3, 5>") == 2


def test_unknown_kernel_rejected():
    with pytest.raises(SystemExit):
        run_example("accuracy_vs_precision.py", ["not-a-kernel"])
