"""Declarative sweep specs: parsing, validation, execution parity."""

import pytest

from repro.harness.spec import (
    EXPERIMENT_SUFFIXES,
    SpecError,
    SweepSpec,
    _parse_cell,
    load_specs,
)


def write(path, text):
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------------
# TOML
# ----------------------------------------------------------------------


def test_toml_basic(tmp_path):
    spec_path = write(
        tmp_path / "s.toml",
        """
        [sweep]
        name = "exp6-unit"
        experiment = "exp6"

        [params]
        seeds = [0, 1]
        n = 4
        """,
    )
    (spec,) = load_specs(spec_path)
    assert spec.name == "exp6-unit"
    assert spec.experiment == "exp6"
    assert spec.params == {"seeds": [0, 1], "n": 4}


def test_toml_range_shorthand(tmp_path):
    spec_path = write(
        tmp_path / "s.toml",
        """
        [sweep]
        experiment = "exp6"

        [params]
        seeds = { range = 4 }
        """,
    )
    (spec,) = load_specs(spec_path)
    assert spec.params["seeds"] == [0, 1, 2, 3]
    assert spec.name == "exp6"  # defaults to the experiment


def test_toml_start_stop_shorthand(tmp_path):
    spec_path = write(
        tmp_path / "s.toml",
        """
        [sweep]
        experiment = "exp6"

        [params]
        seeds = { start = 2, stop = 5 }
        """,
    )
    (spec,) = load_specs(spec_path)
    assert spec.params["seeds"] == [2, 3, 4]


def test_toml_unknown_table_value_rejected(tmp_path):
    spec_path = write(
        tmp_path / "s.toml",
        """
        [sweep]
        experiment = "exp6"

        [params]
        seeds = { frobnicate = 3 }
        """,
    )
    with pytest.raises(SpecError, match="frobnicate"):
        load_specs(spec_path)


def test_toml_missing_sweep_table(tmp_path):
    spec_path = write(tmp_path / "s.toml", "[params]\nseeds = [0]\n")
    with pytest.raises(SpecError, match="sweep"):
        load_specs(spec_path)


def test_toml_syntax_error_reported_with_path(tmp_path):
    spec_path = write(tmp_path / "bad.toml", "[sweep\n")
    with pytest.raises(SpecError, match="bad.toml"):
        load_specs(spec_path)


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------


def test_csv_rows_and_cells(tmp_path):
    spec_path = write(
        tmp_path / "s.csv",
        "experiment,name,ns,seeds\n"
        'exp1,one,"(2, 3)",range(2)\n'
        "\n"
        'exp6,,,"range(1, 4)"\n',
    )
    one, two = load_specs(spec_path)
    assert one.name == "one"
    assert one.params == {"ns": (2, 3), "seeds": [0, 1]}
    assert two.name.startswith("exp6@")  # default name carries the line
    assert two.params == {"seeds": [1, 2, 3]}


def test_csv_requires_experiment_column(tmp_path):
    spec_path = write(tmp_path / "s.csv", "name,seeds\nx,range(2)\n")
    with pytest.raises(SpecError, match="experiment"):
        load_specs(spec_path)


def test_csv_unquoted_comma_rejected(tmp_path):
    spec_path = write(
        tmp_path / "s.csv",
        "experiment,seeds\nexp6,range(1, 4)\n",
    )
    with pytest.raises(SpecError, match="quote"):
        load_specs(spec_path)


def test_csv_no_rows(tmp_path):
    spec_path = write(tmp_path / "s.csv", "experiment,seeds\n\n")
    with pytest.raises(SpecError, match="no sweep rows"):
        load_specs(spec_path)


def test_parse_cell_forms():
    assert _parse_cell("range(3)") == [0, 1, 2]
    assert _parse_cell("range(2, 5)") == [2, 3, 4]
    assert _parse_cell("(1, 2)") == (1, 2)
    assert _parse_cell("true_strings_stay_strings") == "true_strings_stay_strings"
    assert _parse_cell("True") is True
    assert _parse_cell(" 7 ") == 7


def test_unknown_extension(tmp_path):
    spec_path = write(tmp_path / "s.yaml", "experiment: exp1\n")
    with pytest.raises(SpecError, match="yaml"):
        load_specs(spec_path)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


def test_unknown_experiment_rejected():
    with pytest.raises(SpecError, match="exp42"):
        SweepSpec(experiment="exp42")


def test_unknown_param_rejected_before_running():
    spec = SweepSpec(experiment="exp6", params={"seedz": [0]})
    with pytest.raises(SpecError, match="seedz"):
        spec.validate()


def test_reserved_execution_params_rejected():
    for reserved in ("jobs", "store"):
        spec = SweepSpec(experiment="exp6", params={reserved: 1})
        with pytest.raises(SpecError):
            spec.validate()


def test_every_experiment_has_a_runner():
    for experiment in EXPERIMENT_SUFFIXES:
        assert callable(SweepSpec(experiment=experiment).runner())


# ----------------------------------------------------------------------
# Execution parity
# ----------------------------------------------------------------------


def test_spec_run_matches_direct_call():
    from repro.harness.experiments import exp6_merging

    spec = SweepSpec(experiment="exp6", params={"seeds": [0, 1]})
    assert spec.run().render() == exp6_merging(seeds=[0, 1]).render()


def test_curated_specs_parse_and_validate():
    import glob
    import os

    repo_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    spec_files = sorted(
        glob.glob(os.path.join(repo_root, "benchmarks", "specs", "*.toml"))
    ) + sorted(glob.glob(os.path.join(repo_root, "benchmarks", "specs", "*.csv")))
    assert len(spec_files) >= 10  # exp1..exp9 + exp1-large + quick.csv
    for path in spec_files:
        for spec in load_specs(path):
            spec.validate()
