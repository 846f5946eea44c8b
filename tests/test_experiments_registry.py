"""Tests for the experiment registry, ExpTable, and the CLI."""

import pytest

from repro.cli import main
from repro.experiments import (
    EXPERIMENTS,
    ExpTable,
    list_experiments,
    run_experiment,
)

PAPER_ARTIFACTS = {
    # every numbered table/figure from §3 and §9
    "table1", "table2", "table3", "table4", "fig10",
    "fig12", "table7", "fig13", "fig14", "table8",
    "fig15", "fig16", "fig17", "fig18", "fig19",
    "fig20", "table9", "fig21", "fig22",
}


def test_every_paper_artifact_is_registered():
    missing = PAPER_ARTIFACTS - set(EXPERIMENTS)
    assert not missing, f"unregistered paper artifacts: {missing}"


def test_extensions_registered():
    for exp in ("sharing", "des_validation", "concat_virtualization",
                "autotune", "spgemm_preview", "iterative",
                "switch_overheads"):
        assert exp in EXPERIMENTS


def test_list_is_sorted():
    listed = list_experiments()
    assert listed == sorted(listed)


def test_unknown_experiment_raises_helpfully():
    with pytest.raises(KeyError) as exc:
        run_experiment("fig99")
    assert "fig99" in str(exc.value)


def test_duplicate_registration_rejected():
    from repro.experiments.runner import experiment

    with pytest.raises(ValueError):

        @experiment("table1")
        def clash():
            pass


class TestExpTable:
    def sample(self):
        return ExpTable(
            exp_id="x", title="t",
            columns=["name", "value"],
            rows=[["a", 1.5], ["b", 2.5]],
            paper_note="note",
        )

    def test_format_contains_everything(self):
        text = self.sample().format()
        for token in ("x: t", "name", "value", "a", "1.5", "[paper] note"):
            assert token in text

    def test_column_access(self):
        assert self.sample().column("value") == [1.5, 2.5]
        with pytest.raises(ValueError):
            self.sample().column("nope")

    def test_row_by(self):
        assert self.sample().row_by("name", "b") == ["b", 2.5]
        with pytest.raises(KeyError):
            self.sample().row_by("name", "zz")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig22" in out

    def test_run_scale_free_experiment(self, capsys):
        assert main(["run", "table3"]) == 0
        out = capsys.readouterr().out
        assert "header %" in out

    def test_run_with_tiny_scale(self, capsys):
        assert main(["run", "table4", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "unique dests" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "nope"]) == 1


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"netsparse {repro.__version__}" in capsys.readouterr().out

    def test_version_subcommand(self, capsys):
        import repro

        assert main(["version"]) == 0
        assert f"netsparse {repro.__version__}" in capsys.readouterr().out

    def test_version_is_nonempty_string(self):
        import repro

        assert isinstance(repro.__version__, str) and repro.__version__


class TestFastExperimentsAtTinyScale:
    """Smoke-run the cheap experiments end to end at tiny scale so the
    harness itself is covered by the unit suite."""

    @pytest.mark.parametrize("exp_id", ["table1", "table2", "table4"])
    def test_motivation(self, exp_id):
        table = run_experiment(exp_id, scale="tiny")
        assert table.rows
        assert table.exp_id == exp_id

    def test_fig10_shape(self):
        table = run_experiment("fig10")
        ks = set(table.column("K"))
        assert ks == {16, 128}

    def test_hardware_tables(self):
        assert run_experiment("fig20").rows
        assert run_experiment("table9").rows
        assert run_experiment("switch_overheads").rows

    def test_sharing_tiny(self):
        table = run_experiment("sharing", scale="tiny", n_nodes=32,
                               nodes_per_rack=4)
        assert len(table.rows) == 6  # 5 matrices + mean
