"""The gradient judge itself: a wrong backward fails exactly the checks that use it."""

import pytest

from raeslab import cli, gradcheck
from raeslab.gradcheck import default_suite
from raeslab.tensor import _record

# op bound in raeslab.gradcheck -> the checks that call it directly
CHECKS_OF_OP = {
    "matmul": {"core-ops"},
    "reshape": {"core-ops"},
    "time_distributed_dense": {"dense-head"},
    "gru_forward": {"gru-step", "gru-sequence", "gru-final", "gru-repeated"},
    "conv1d_forward": {"conv1d"},
    "maxpool1d_forward": {"maxpool1d"},
    "swap_last_axes": {"transpose"},
}


def double_the_gradient(monkeypatch, op_name: str) -> None:
    """Rebind ``op_name`` in raeslab.gradcheck to the real op whose backward is doubled.

    The forward, and so every finite difference, is unchanged; only the
    tape's gradient is wrong.
    """
    real = getattr(gradcheck, op_name)

    def wrong(*args):
        out = real(*args)
        return _record(f"doubled_{op_name}", out.data, (out, lambda g: 2.0 * g))

    monkeypatch.setattr(gradcheck, op_name, wrong)


@pytest.mark.parametrize("op_name", sorted(CHECKS_OF_OP))
def test_wrong_backward_fails_exactly_its_checks(monkeypatch, op_name):
    double_the_gradient(monkeypatch, op_name)
    results = default_suite(instances=1)
    failed = {r.name for r in results if not r.passed}
    assert failed == CHECKS_OF_OP[op_name]
    # the full models use raeslab.models' own bindings, which stay correct
    assert all(r.passed for r in results if r.name.endswith("-full"))


def test_cli_reports_a_failing_check_with_exit_one(monkeypatch, capsys):
    double_the_gradient(monkeypatch, "swap_last_axes")
    assert cli.main(["gradcheck", "--instances", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[1] for ln in lines if ln.startswith("FAIL  ")] == ["transpose"]


def test_suite_is_deterministic():
    assert default_suite(instances=2, seed=3) == default_suite(instances=2, seed=3)
