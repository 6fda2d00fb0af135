"""The CLI's canonical outputs, pinned line by line.

canonical_outputs.json holds the standard output of five commands, keyed
by their argument string.  Each line is parsed (a JSON record, or a CSV
row) and compared field by field: names, checks, verdicts, engines and
auto reasons exactly, numbers at rel 1e-12, so that another BLAS passes.
A difference of two printed values is held to 1e-12 of the values it is
taken from, the bound that rel 1e-12 on those values gives it.  An
intended change of output updates the pin in the same change.
"""
import contextlib
import io
import json
import math
import pathlib
import shlex

import pytest

from expmoment.cli import EXIT_OK, main

PINS = json.loads((pathlib.Path(__file__).parent / "canonical_outputs.json").read_text())
REL = 1e-12


def _parse(line: str):
    if line.startswith("{"):
        return json.loads(line)
    fields = []
    for field in line.split(","):
        try:
            fields.append(float(field))
        except ValueError:
            fields.append(field)
    return fields


def _difference_scale(key: str, record: dict) -> float | None:
    """The magnitude a difference field is taken from, or None for a plain field."""
    if key == "margin":
        return abs(record["lhs"]) + abs(record["rhs"])
    if key == "finite_T_deviation":
        return abs(record["lhs"]) + abs(record["lower_bounds"][-1])
    if key.endswith("disagreement"):  # |a - b| / max(|a|, |b|)
        return 2.0
    return None


def _compare(got, want, where: str, abs_tol: float = 0.0) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            scale = _difference_scale(key, want)
            _compare(got[key], want[key], f"{where}.{key}",
                     0.0 if scale is None else REL * scale)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, (bool, str)) or want is None:
        assert type(got) is type(want) and got == want, where
    else:
        assert not isinstance(got, (bool, str)) and got is not None, where
        assert math.isclose(got, want, rel_tol=REL, abs_tol=abs_tol), \
            f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("command", list(PINS))
def test_canonical_output(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(command)) == EXIT_OK
    lines = out.getvalue().splitlines()
    assert len(lines) == len(PINS[command])
    for i, (got, want) in enumerate(zip(lines, PINS[command])):
        _compare(_parse(got), _parse(want), f"{command}: line {i + 1}")
