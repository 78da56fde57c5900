"""The exact demos exit 1 when a certificate they print is false."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def load(name):
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def failing_relation(verify):
    return lambda family, *args: dataclasses.replace(verify(family, *args),
                                                     passed=family != "qq_c")


def second_coefficient_set(discover):
    # the last of the eight signatures measures a different alpha_00
    calls = []

    def fake(metric, params):
        calls.append(metric)
        rel = discover(metric, params)
        return dataclasses.replace(rel, alpha_00=rel.alpha_00 + (len(calls) == 8))

    return fake


def failing_classical(verify):
    return lambda family, *args: dict(verify(family, *args), passed=family != "symmetry")


def failing_correspondence(check):
    return lambda metric, params: dict(check(metric, params),
                                       passed=metric.diag != (1, -1, 1))


@pytest.mark.parametrize("demo,name,wrap,message", [
    ("01_operator_algebra", "verify_relation", failing_relation, "relation qq_c"),
    ("01_operator_algebra", "discover_linear_relation", second_coefficient_set,
     "one linear relation for every metric"),
    ("02_classical_limit", "verify_classical_relation", failing_classical,
     "classical relation symmetry"),
    ("02_classical_limit", "correspondence_check", failing_correspondence,
     "correspondence diag(1, -1, 1)"),
])
def test_false_certificate_exits_1(demo, name, wrap, message, monkeypatch, capsys):
    module = load(demo)
    assert module.main() == 0
    passing = capsys.readouterr()
    assert passing.err == ""
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    assert module.main() == 1
    failing = capsys.readouterr()
    assert failing.err == f"false certificate: {message}\n"
