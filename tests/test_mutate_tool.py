"""``tools/mutate.py`` picks the mutants of the functions it is given and
derives their timeout from the unmutated run.

Only ``--list`` runs here: it lists the mutants and starts no suite.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"


def _tool():
    spec = importlib.util.spec_from_file_location("mutate_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(argv):
    return _tool().main(argv)


def test_a_named_function_without_a_mutable_site_is_noted_and_skipped(capsys):
    argv = ["--list", "--module", "shapes.py", "--function", "compose", "--function", "_permuted"]
    assert _main(argv) == 0
    out, err = capsys.readouterr()
    assert "function compose of src/opetopes/shapes.py has no mutable site" in err
    listed = out.splitlines()
    assert listed and all(" _permuted " in line for line in listed)


def test_a_name_the_module_does_not_define_is_refused(capsys):
    assert _main(["--list", "--module", "shapes.py", "--function", "compose", "--function", "nosuch"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no function nosuch in src/opetopes/shapes.py" in err


def test_a_mutant_timeout_is_a_multiple_of_the_unmutated_run_with_a_floor(capsys):
    module = _tool()
    floor, factor = module.TIMEOUT_FLOOR_S, module.TIMEOUT_FACTOR
    assert module.mutant_timeout(0.0) == floor
    assert module.mutant_timeout(floor / factor) == floor
    assert module.mutant_timeout(50.0) == max(floor, factor * 50.0)
    assert module.mutant_timeout(1000.0) == factor * 1000.0
    assert module.main(["--list", "--module", "shapes.py", "--function", "_permuted"]) == 0
    _, err = capsys.readouterr()
    assert "a mutant times out after %dx the unmutated run, at least %d s" % (factor, floor) in err
