from compare import compare, verdict
from run import summary

CONTRACT = {"end_to_end": [
    {"name": "regen_s", "unit": "s", "better": "lower", "bound": 0.1}]}


def s(*values):
    return summary(values)


def test_verdicts():
    base = s(*[10.0 + 0.01 * i for i in range(10)])
    assert verdict(base, base, 0.1, "lower") == "unchanged"
    assert verdict(base, s(*[12.0 + 0.01 * i for i in range(10)]),
                   0.1, "lower") == "regressed"
    assert verdict(base, s(*[9.0 + 0.01 * i for i in range(10)]),
                   0.1, "lower") == "improved"
    # Within the bound but every change run is slower: not a regression.
    assert verdict(base, s(*[10.5 + 0.01 * i for i in range(10)]),
                   0.1, "lower") == "unchanged"
    noisy = s(8.0, 9.0, 10.0, 11.0, 12.0, 13.0)
    assert verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert verdict(noisy, s(5.0, 6.0, 7.0), 0.1, "lower") == "improved"
    # A gain on fewer than ten paired runs is not claimed.
    assert verdict(s(10.0, 10.1), s(9.0, 9.1), 0.1, "lower") == "unresolved"
    # "higher is better" flips the direction.
    assert verdict(base, s(*[12.0 + 0.01 * i for i in range(10)]),
                   0.1, "higher") == "improved"


def _report(samples, failed=0):
    return {"workloads": {"w": {
        "end_to_end": {"regen_s": summary(samples)},
        "attempted": 10, "failed": failed}}}


def test_compare_counts_regressions_and_failures(capsys):
    a = _report([10.0, 10.1, 10.2])
    assert compare(a, _report([10.0, 10.1, 10.2]), CONTRACT) == 0
    assert compare(a, _report([13.0, 13.1, 13.2]), CONTRACT) == 1
    assert compare(a, _report([10.0, 10.1, 10.2], failed=1), CONTRACT) == 1
    assert "failed_frac" in capsys.readouterr().out
