"""Command-line surface: every subcommand, output formats, file
output, exit codes, and byte determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import f1kgw
from f1kgw import cli, qcat
from f1kgw.cli import main
from f1kgw.qcat import completion_category
from test_fincat import category_from_json


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_axioms_text(capsys):
    rc, out = run(["axioms", "--max-size", "2"], capsys)
    assert rc == 0
    assert "result: ALL PASS" in out


def test_axioms_json_is_sorted_and_newline_terminated(capsys):
    rc, out = run(["axioms", "--max-size", "2", "--output", "json"], capsys)
    assert rc == 0
    assert out.endswith("\n") and not out.endswith("\n\n")
    data = json.loads(out)
    assert data["ok"] is True
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"


def test_axioms_jobs_do_not_change_bytes(capsys):
    _, one = run(["axioms", "--max-size", "2", "--jobs", "1", "--output", "json"], capsys)
    _, two = run(["axioms", "--max-size", "2", "--jobs", "2", "--output", "json"], capsys)
    assert one == two


def test_forms_counts(capsys):
    rc, out = run(["forms", "--max-size", "4"], capsys)
    assert rc == 0
    assert "size 4: 10 forms" in out
    assert "total: 18" in out


def test_decompose_worked_example(capsys):
    rc, out = run(["decompose", "inv:(1 2)(3)"], capsys)
    assert rc == 0
    assert out == (
        "form: inv:(1 2)(3)\n"
        "decomposition: H(1) ⊕ id_1\n"
        "isometry: [0,1,2,3]:3->3\n"
        "automorphisms: 2\n"
    )


def test_decompose_edge_names(capsys):
    assert run(["decompose", "inv:()"], capsys)[1].splitlines()[1] == "decomposition: 0"
    assert (
        run(["decompose", "inv:(1)(2)"], capsys)[1].splitlines()[1]
        == "decomposition: id_2"
    )
    assert (
        run(["decompose", "inv:(1 2)"], capsys)[1].splitlines()[1]
        == "decomposition: H(1)"
    )


def test_decompose_rejects_bad_literal(capsys):
    rc = main(["decompose", "inv:(1 3)"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


def test_k0_routes_agree(capsys):
    rc, out = run(["k0", "--max-size", "3", "--output", "json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert data["routes_agree"] is True
    assert data["group"] == {"rank": 1, "torsion": []}


def test_gw0(capsys):
    rc, out = run(["gw0", "--max-size", "4"], capsys)
    assert rc == 0
    assert "GW0 at max size 4: Z" in out
    assert "hermitian span components at size 4: 5" in out


def test_gw0_notes_the_capped_component_census_on_stderr(capsys):
    assert main(["gw0", "--max-size", "5"]) == 0
    captured = capsys.readouterr()
    assert "hermitian span components at size 4: 5" in captured.out
    assert captured.err == (
        "note: hermitian span components are counted at size 4, not at --max-size 5\n"
    )
    for argv in (["gw0", "--max-size", "4"], ["gw0", "--max-size", "5", "--output", "json"]):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


def test_witt_json_shape(capsys):
    rc, out = run(["witt", "--max-size", "4", "--output", "json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert set(data) == {"invariant", "max_size", "monoid", "classes", "completion"}
    assert data["invariant"] == "W0"
    assert data["completion"] == {"rank": 1, "torsion": []}


def test_qcat_hom_table(capsys):
    rc, out = run(["qcat", "--max-size", "2"], capsys)
    assert rc == 0
    assert "span category: 3 objects, 14 morphisms" in out
    assert "hom(0, 2): 4" in out


def test_qhcat_json(capsys):
    rc, out = run(["qhcat", "--max-size", "2", "--output", "json"], capsys)
    assert rc == 0
    data = json.loads(out)
    assert len(data["objects"]) == 4


def test_qcat_dot(capsys):
    rc, out = run(["qcat", "--max-size", "2", "--output", "dot"], capsys)
    assert rc == 0
    assert out.startswith("digraph")


def test_suites_exit_zero(capsys):
    rc, out = run(["suites", "--max-size", "2"], capsys)
    assert rc == 0
    assert out.count("result: ALL PASS") == 4


def test_suites_smallest_windows(capsys):
    rc, out = run(["suites", "--max-size", "1"], capsys)
    assert rc == 0
    assert out.count("result: ALL PASS") == 4
    rc = main(["suites", "--max-size", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error: suites needs --max-size >= 1, got 0" in captured.err


@pytest.mark.parametrize(
    "max_size, output, digest",
    [
        (1, "text", "8653286c8b5c9298"),
        (1, "json", "2dbd336a4f8b732a"),
        (2, "text", "7079251c41d7d15d"),
        (2, "json", "9a5f7bcfa1fbeabb"),
        (3, "text", "c7775ca2dbfcc11f"),
        (3, "json", "68ff132ada3757cf"),
    ],
)
def test_suites_bytes_are_pinned(capsys, max_size, output, digest):
    rc, out = run(["suites", "--max-size", str(max_size), "--output", output], capsys)
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == digest


def test_every_benchmark_pin_holds(capsys, monkeypatch):
    """Each kgw invocation that the benchmark's cli workload can make,
    run in process, exits with the code and prints the bytes that
    perfbench/pins.json holds."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import workloads

    got = {}
    for _, key, argv in workloads.cli_commands(workloads.decompose_pool()):
        rc, out = run(argv, capsys)
        got[key] = workloads.pin(rc, out.encode("utf-8"))
    assert got == json.loads((perfbench / "pins.json").read_text())


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "completion.json"
    rc, out = run(
        ["export", "--what", "completion", "--max-size", "2", "--out", str(target)],
        capsys,
    )
    assert rc == 0
    data = json.loads(target.read_text())
    assert set(data) >= {"objects", "homs", "comp"}
    # stdout stays quiet when writing to a file
    assert out == ""
    # the file rebuilds the category
    cat = completion_category(2)
    back = category_from_json(target.read_text(encoding="utf-8"))
    assert back.comp == cat.comp
    assert back.identities == {str(o): m for o, m in cat.identities.items()}


@pytest.mark.parametrize(
    "argv",
    [["export", "--what", what] for what in ("qcat", "qhcat", "conflations", "completion")]
    + [["qcat", "--output", "json"], ["qhcat", "--output", "json"]],
    ids=" ".join,
)
def test_category_json_is_the_sorted_dump(argv, capsys):
    rc, out = run(argv + ["--max-size", "2"], capsys)
    assert rc == 0
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_export_dot(capsys):
    rc, out = run(["export", "--what", "qcat", "--max-size", "2", "--output", "dot"], capsys)
    assert rc == 0
    assert out.startswith("digraph")


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_negative_max_size_is_a_usage_error(capsys):
    for command in ("axioms", "forms", "k0", "gw0", "witt", "qcat", "qhcat", "suites", "export"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--max-size", "-1"])
        assert exc.value.code == 2
        assert "--max-size: expected an integer >= 0, got '-1'" in capsys.readouterr().err


def test_jobs_below_one_is_a_usage_error(capsys):
    for command in ("axioms", "suites"):
        for jobs in ("0", "-5"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--max-size", "1", "--jobs", jobs])
            assert exc.value.code == 2
            assert "--jobs: expected an integer >= 1, got %r" % jobs in capsys.readouterr().err


def test_console_script_round_trip():
    # the installed entry point and byte determinism across processes
    cmd = [sys.executable, "-m", "f1kgw.cli", "witt", "--max-size", "3", "--output", "json"]
    a = subprocess.run(cmd, capture_output=True, text=True)
    b = subprocess.run(cmd, capture_output=True, text=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["invariant"] == "W0"


def test_start_up_loads_no_dataclasses_inspect_or_multiprocessing():
    # Newly covers: importing the cli loads none of these, and a
    # one-worker axioms run does not load multiprocessing either.
    code = (
        "import sys, io, contextlib\n"
        "import f1kgw.cli\n"
        "heavy = ('dataclasses', 'inspect', 'multiprocessing')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = f1kgw.cli.main(['axioms', '--max-size', '2'])\n"
        "print(rc, 'multiprocessing' in sys.modules)\n"
    )
    src = str(Path(f1kgw.__file__).resolve().parents[1])
    paths = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n0 False\n"


def test_suites_build_the_hermitian_span_category_once(capsys, monkeypatch):
    # The comma and split-summand suites share one qh_category(max_size),
    # and the split-summand domain is a full subcategory of it.
    built = []
    build = qcat.qh_category

    def counting(max_size):
        built.append(max_size)
        return build(max_size)

    monkeypatch.setattr(qcat, "qh_category", counting)
    monkeypatch.setattr(cli, "qh_category", counting)
    rc, _ = run(["suites", "--max-size", "2"], capsys)
    assert rc == 0
    assert built == [2]
