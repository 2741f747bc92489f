"""Configuration documents and the command-line surface.

CLI commands run in-process through main(argv); stdout/stderr are captured
and parsed, artifacts land in tmp_path, and exit codes are asserted against
the documented mapping (0 ok, 2 config/usage, 3 budget, 4 verification).
"""

import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from juliaspec import cli
from juliaspec.canonical import CANONICAL_NAMES, all_canonical, canonical_config
from juliaspec.cli import _COMMANDS, _REQUIRED, _path, main, parse_complex
from juliaspec.config import load_config_file, parse_config
from juliaspec.errors import BudgetExceededError, ConfigError, JuliaspecError
from juliaspec.sequences import spec_to_json
from strategies import D_SPECS, P_SPECS

MINIMAL = {
    "p": {"kind": "constant", "value": "1/2"},
    "d": {"kind": "constant", "value": 2},
}

TERNARY_DOC = {
    "p": {"kind": "constant", "value": "1/2"},
    "d": {"kind": "constant", "value": 3},
    "seed": 7,
}


# -- configuration parsing ---------------------------------------------------


def test_parse_config_minimal_defaults():
    rc = parse_config(MINIMAL)
    assert rc.seed == 0
    assert rc.command == {}
    assert rc.base().capacity == 2**64 - 1
    assert rc.chain().p_at(1) == Fraction(1, 2)
    assert rc.base().digit_base(5) == 2
    # Integral floats count as JSON integers.
    rc = parse_config({**MINIMAL, "seed": 1.0})
    assert rc.seed == 1 and type(rc.seed) is int


@pytest.mark.parametrize(
    "doc",
    [
        {"p": MINIMAL["p"]},  # missing d
        {**MINIMAL, "extra": 1},
        {**MINIMAL, "seed": -1},
        {**MINIMAL, "seed": 2**64},
        {**MINIMAL, "capacity_bits": 64},  # states are 64-bit: no key sets the ceiling
        {**MINIMAL, "capacity_bits": 128},
        {**MINIMAL, "p": {"kind": "fibonacci"}},
        {**MINIMAL, "p": {"value": "1/2"}},  # kind missing
        {**MINIMAL, "command": "render"},  # must be an object
        [MINIMAL],  # not an object
        {**MINIMAL, "seed": True},  # booleans are not integers
        {**MINIMAL, "seed": 2.5},
        {**MINIMAL, "capacity_bits": True},
        {**MINIMAL, "p": "x"},
    ],
)
def test_parse_config_rejects_bad_documents(doc):
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_config_json_roundtrip():
    doc = {
        **MINIMAL,
        "seed": 99,
        "command": {"depth": 4},
    }
    rc = parse_config(doc)
    again = parse_config(rc.to_json())
    assert again == rc
    assert rc.with_seed(5).seed == 5
    assert rc.with_seed(5).p == rc.p
    assert rc.with_seed(2**64 - 1).seed == 2**64 - 1
    for bad in (-1, 2**64, 1.5, True, "3"):
        with pytest.raises(ConfigError, match="seed"):
            rc.with_seed(bad)


@pytest.mark.parametrize(
    "d, want, bad",
    [
        ({"kind": "constant", "value": 2.0}, {"kind": "constant", "value": 2}, {"kind": "constant", "value": 2.5}),
        (
            {"kind": "periodic", "values": [2, 3.0]},
            {"kind": "periodic", "values": [2, 3]},
            {"kind": "periodic", "values": [2, True]},
        ),
        (
            {"kind": "prefix", "prefix": [3.0], "tail": {"kind": "constant", "value": 2.0}},
            {"kind": "prefix", "prefix": [3], "tail": {"kind": "constant", "value": 2}},
            {"kind": "prefix", "prefix": ["3"], "tail": {"kind": "constant", "value": 2}},
        ),
        (
            {"kind": "random", "max": 3.0, "seed": 4.0},
            {"kind": "random", "max": 3, "seed": 4},
            {"kind": "random", "max": 3.5, "seed": 4},
        ),
    ],
)
def test_base_specs_read_integers_the_json_way(d, want, bad, tmp_path, capsys):
    rc = parse_config({**MINIMAL, "d": d})
    assert json.dumps(spec_to_json(rc.d)) == json.dumps(want)
    assert rc == parse_config({**MINIMAL, "d": want})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**MINIMAL, "d": d}))
    assert main(["classify", "--config", str(path), "--lambda", "0.5", "--space", "c0"]) == 0
    capsys.readouterr()
    with pytest.raises(ConfigError):  # a fraction, a bool or a string is not an integer
        parse_config({**MINIMAL, "d": bad})


def test_chain_and_system_share_one_base():
    rc = parse_config(TERNARY_DOC)
    assert rc.chain().base is rc.system().base is rc.base()
    assert rc.with_seed(8).base() is not rc.base()


# Out-of-range and ill-typed scalars: negative, fractional and boolean seeds among them.
_ODD = st.one_of(
    st.integers(-5, -1),
    st.sampled_from([0, 1.5, 2.5, True, False, None, "x", "nan", "inf", "-1/2", 10**30]),
    st.floats(),
)


def _slots(node):
    """(container, key) of every scalar in a spec document, "kind" excepted."""
    for k, v in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(v, (dict, list)):
            yield from _slots(v)
        elif k != "kind":
            yield node, k


@st.composite
def _documents(draw):
    """A valid config document, or one whose p or d spec holds one odd scalar."""
    doc = {"p": spec_to_json(draw(P_SPECS)), "d": spec_to_json(draw(D_SPECS))}
    if draw(st.booleans()):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        container[key] = draw(_ODD)
    return doc


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_documents())
def test_parsed_configs_work_or_refuse(doc):
    try:
        rc = parse_config(doc)
    except (ConfigError, BudgetExceededError):  # the latter for a digit base past its cap
        return
    chain, system = rc.chain(), rc.system()
    for n in range(8):
        try:
            chain.transition_row(n)
        except JuliaspecError:
            pass  # a refusal is fine; any other exception fails the test
    for j in range(5):
        try:
            system.level(j)
        except JuliaspecError:
            pass


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TERNARY_DOC))
    rc = load_config_file(path)
    assert rc.seed == 7
    assert rc.base().digit_base(1) == 3
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(bad)


def test_canonical_configs():
    configs = all_canonical()
    assert tuple(configs) == CANONICAL_NAMES
    for name, rc in configs.items():
        assert rc.seed == 20260823, name
    assert configs["binary-geometric"].chain().p_at(2) == Fraction(15, 16)
    assert configs["mixed23-harmonic"].base().digit_base(1) == 2
    assert configs["mixed23-harmonic"].base().digit_base(2) == 3
    with pytest.raises(ConfigError):
        canonical_config("nope")


def test_canonical_configs_read_package_data_once(monkeypatch):
    from juliaspec import canonical

    reads = []
    real_files = canonical.resources.files

    class Counting:
        def __init__(self, path):
            self.path = path

        def joinpath(self, name):
            return Counting(self.path.joinpath(name))

        def read_text(self, encoding):
            reads.append(self.path.name)
            return self.path.read_text(encoding)

    monkeypatch.setattr(canonical.resources, "files", lambda package: Counting(real_files(package)))
    canonical._packaged_text.cache_clear()
    try:
        with pytest.raises(ConfigError):
            canonical_config("nope")
        assert reads == []
        for k in range(100):
            name = CANONICAL_NAMES[k % len(CANONICAL_NAMES)]
            first, second = canonical_config(name), canonical_config(name)
            assert first == second and first is not second
            assert first.with_seed(7).seed == 7
            first.command["probe"] = k  # a caller's change stays in its own RunConfig
            third = canonical_config(name)
            assert third.seed == 20260823 and "probe" not in third.command
        assert sorted(reads) == sorted(f"{name}.json" for name in CANONICAL_NAMES)
    finally:
        canonical._packaged_text.cache_clear()


def test_parse_complex_forms():
    assert parse_complex("0.3+0.2i") == 0.3 + 0.2j
    assert parse_complex("1+0j") == 1.0
    assert parse_complex("-0.5i") == -0.5j
    assert parse_complex("2") == 2.0
    assert parse_complex("(0.3+0.2i)") == 0.3 + 0.2j
    with pytest.raises(ConfigError):
        parse_complex("elephant")


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "Infinity", "1+nani", "0.5+infj"])
def test_parse_complex_rejects_non_finite(text):
    with pytest.raises(ConfigError, match="not finite"):
        parse_complex(text)


# -- commands ----------------------------------------------------------------


def test_classify_command(capsys):
    rc = main(["classify", "--canonical", "dendrite", "--lambda", "1+0i", "--space", "c"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["membership"] == "in-spectrum"
    assert out["part"] == "point"
    assert out["lambda"] == [1.0, 0.0]
    assert out["space"] == "c"


def test_classify_escape_verdict(capsys):
    rc = main(["classify", "--canonical", "ternary-p12", "--lambda", "2", "--space", "linf"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["membership"] == "not-in-spectrum"
    assert out["part"] == "not-applicable"


def test_residual_set_stdout(capsys):
    rc = main(["residual-set", "--canonical", "dendrite", "--depth", "5"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 2
    re, im = map(float, lines[1].split(","))
    assert abs(complex(re, im) - 1.0) < 1e-8
    note = json.loads(captured.err)
    assert note["regime"] == "equality"
    assert note["conjecture"] is False


def test_residual_set_transient_note(tmp_path, capsys):
    out = tmp_path / "points.csv"
    rc = main(
        ["residual-set", "--canonical", "binary-geometric", "--depth", "3", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text() == "re,im\n"  # conjectured empty: no points
    note = json.loads(capsys.readouterr().err)
    assert note["regime"] == "transient"
    assert note["conjecture"] is True


# The residual set compares no two trees, so the command takes no --tol at all.
@pytest.mark.parametrize("tol", ["nan", "-1", "0", "1e-8"])
def test_residual_set_rejects_bad_tol(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["residual-set", "--canonical", "binary-p34", "--depth", "4", f"--tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --tol={tol}" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--canonical", "binary-p34", "--space", "c0", "--lambda={}"],
        ["spectrum-report", "--canonical", "binary-p34", "--lambdas=0.1,{}"],
        ["preimages", "--canonical", "binary-p34", "--depth", "2", "--target={}"],
    ],
)
def test_non_finite_complex_arguments_exit_2(argv, value, capsys):
    rc = main([a.format(value) for a in argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_command_object_supplies_defaults_flags_override(tmp_path, capsys):
    doc = {**TERNARY_DOC, "command": {"depth": 2}}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))

    assert main(["residual-set", "--config", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) - 1 == 9  # depth 2 from the command object

    assert main(["residual-set", "--config", str(path), "--depth", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) - 1 == 27  # flag wins


def test_render_command(tmp_path, capsys):
    # A config whose filled set has interior around 0, so the origin pixel
    # stays inside at any sane budget.
    prefix = tmp_path / "img"
    rc = main(
        [
            "render", "--canonical", "binary-geometric",
            "--re-min", "-1.5", "--re-max", "1.5",
            "--im-min", "-1.5", "--im-max", "1.5",
            "--width", "24", "--height", "18", "--max-iter", "40",
            "--overlay", "eigenvalues", "--trunc-size", "8",
            "--out-prefix", str(prefix),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ppm"] == str(prefix) + ".ppm"
    assert summary["csv"] == str(prefix) + ".csv"
    assert 0.0 < summary["inside-fraction"] < 1.0
    assert summary["components"] >= 1
    assert summary["origin-component-size"] >= 1
    ppm = (tmp_path / "img.ppm").read_bytes()
    assert ppm.startswith(b"P6\n24 18\n255\n")
    assert len(ppm) == len(b"P6\n24 18\n255\n") + 24 * 18 * 3
    csv_lines = (tmp_path / "img.csv").read_text().splitlines()
    assert csv_lines[0] == "re,im,verdict,step"
    assert len(csv_lines) == 1 + 24 * 18


def test_simulate_to_file_with_statistics(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    argv = [
        "simulate", "--canonical", "dendrite",
        "--start", "1", "--steps", "50",
        "--trajectories", "40", "--horizon", "2000",
        "--out", str(out),
    ]
    assert main(argv) == 0
    stats1 = json.loads(capsys.readouterr().out)
    body1 = out.read_bytes()
    assert main(argv) == 0
    stats2 = json.loads(capsys.readouterr().out)
    assert stats1 == stats2  # same seed, same draws
    assert out.read_bytes() == body1
    assert stats1["trajectories"] == 40
    assert stats1["horizon"] == 2000
    assert 0 <= stats1["hits"] <= 40
    assert stats1["ci95"][0] <= stats1["fraction"] <= stats1["ci95"][1]
    lines = body1.decode().splitlines()
    assert lines[0] == "step,state,zeta,digits"
    assert len(lines) == 1 + 51  # start plus 50 moves


def test_simulate_stdout_keeps_csv_clean(capsys):
    rc = main(
        ["simulate", "--canonical", "ternary-p12", "--start", "0", "--steps", "5",
         "--trajectories", "10", "--horizon", "100"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "step,state,zeta,digits"
    json.loads(captured.err)  # statistics went to stderr


def test_preimages_command(capsys):
    rc = main(["preimages", "--canonical", "ternary-p12", "--depth", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 1 + 9
    rc = main(["preimages", "--canonical", "ternary-p12", "--depth", "1", "--target", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3  # triple root at the critical point
    for line in lines[1:]:
        re, im = map(float, line.split(","))
        assert complex(re, im) == pytest.approx(0.5 + 0j, abs=1e-9)


def test_preimages_of_a_target_past_the_float_range_exit_2(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    rc = main(["preimages", "--canonical", "dendrite", "--depth", "2",
               "--target=1.7e308+1.7e308j", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "float range" in captured.err
    assert not out.exists()


def test_truncate_command(tmp_path, capsys):
    prefix = tmp_path / "tr"
    rc = main(["truncate", "--canonical", "dendrite", "--size", "8", "--out-prefix", str(prefix)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {
        "size": 8,
        "exact": True,
        "matrix": str(prefix) + "-matrix.csv",
        "eigenvalues": str(prefix) + "-eigenvalues.csv",
    }
    mat = (tmp_path / "tr-matrix.csv").read_text().splitlines()
    assert mat[0] == "row,col,num,den"
    eig = (tmp_path / "tr-eigenvalues.csv").read_text().splitlines()
    assert eig[0] == "re,im,modulus,verdict"
    assert len(eig) == 1 + 8


def test_spectrum_report_command(capsys):
    rc = main(
        ["spectrum-report", "--canonical", "binary-geometric",
         "--lambdas", "0,1+0i", "--depth", "3"]
    )
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["recurrence"] == "transient"
    assert set(rep["spaces"]) == {"linf", "c0", "c", "l1", "l2"}
    assert len(rep["lambdas"]) == 2
    assert rep["lambdas"][0]["c0"]["part"] == "point"


# -- exit codes --------------------------------------------------------------


def test_exit_code_2_without_configuration(capsys):
    rc = main(["classify", "--lambda", "1", "--space", "c"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_2_bad_lambda(capsys):
    rc = main(["classify", "--canonical", "dendrite", "--lambda", "x?", "--space", "c"])
    assert rc == 2


def test_exit_code_2_bad_grid(capsys):
    rc = main(["render", "--canonical", "dendrite", "--width", "8", "--height", "8",
               "--max-iter", "5", "--radius", "0.9", "--out-prefix", "unused"])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["render", "--width", "4096", "--height", "4096", "--out-prefix", "{tmp}/img"],
        ["simulate", "--steps", str(1 << 30), "--out", "{tmp}/traj.csv"],
        # Budgets and --max-iter above the level cap of 2^20.
        ["classify", "--lambda", "0.3", "--space", "l1", "--budget", "1048577"],
        ["spectrum-report", "--lambdas", "0.3", "--budget", "1048577"],
        ["spectrum-report", "--budget", "1048577"],
        ["render", "--max-iter", "1048577", "--out-prefix", "{tmp}/img"],
        ["truncate", "--size", "8", "--budget", "1048577", "--out-prefix", "{tmp}/t"],
    ],
)
def test_exit_code_3_past_the_size_caps(argv, tmp_path, capsys):
    # Refused before anything is allocated or written.
    rc = main([argv[0], "--canonical", "dendrite", *(a.format(tmp=tmp_path) for a in argv[1:])])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "window",
    [
        ["--re-min=-inf", "--re-max=inf"],  # used to write nan centers, then a traceback
        ["--re-min=-1e308", "--re-max=1e308"],  # finite bounds, infinite dx: all "inside"
        ["--radius=inf"],  # nothing can ever escape
    ],
)
def test_exit_code_2_non_finite_window(window, tmp_path, capsys):
    rc = main(["render", "--canonical", "dendrite", "--width", "8", "--height", "8",
               "--max-iter", "5", "--out-prefix", str(tmp_path / "img"), *window])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_3_eigensolve_cap(tmp_path, capsys):
    # The tree table serves every size up to 2^20 leaves; one more is refused.
    rc = main(["truncate", "--canonical", "dendrite", "--size", str((1 << 20) + 1),
               "--out-prefix", str(tmp_path / "tr")])
    assert rc == 3
    assert "budget exceeded" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_truncate_builds_the_matrix_once(monkeypatch, tmp_path, capsys):
    import juliaspec.cli as cli
    import juliaspec.operator as op

    calls = []
    real = op.build_truncation

    def counting(cfg, size):
        calls.append(size)
        return real(cfg, size)

    monkeypatch.setattr(op, "build_truncation", counting)
    monkeypatch.setattr(cli, "build_truncation", counting)
    rc = main(["truncate", "--canonical", "binary-p34", "--size", "45",
               "--out-prefix", str(tmp_path / "tr")])
    assert rc == 0
    assert calls == [45]


def test_exit_code_3_truncation_past_the_tree_cap(tmp_path, capsys):
    rc = main(["truncate", "--canonical", "dendrite", "--size", str(1 << 21),  # q_21
               "--out-prefix", str(tmp_path / "tr")])
    assert rc == 3
    assert "budget exceeded" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--canonical", "binary-p34", "--space", "lnan", "--lambda=0.1"],
        ["spectrum-report", "--canonical", "binary-p34", "--alphas=nan"],
        ["spectrum-report", "--canonical", "binary-p34", "--alphas=inf"],
        ["spectrum-report", "--canonical", "binary-p34", "--alphas=abc"],
        ["spectrum-report", "--canonical", "binary-p34", "--alphas="],
        ["spectrum-report", "--canonical", "binary-p34", "--alphas=1,,2"],
    ],
)
def test_exit_code_2_non_finite_alpha(argv, capsys):
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "alpha" in captured.err


@pytest.mark.parametrize("name", ["dendrite", "binary-geometric"])
@pytest.mark.parametrize("cmd", ["residual-set", "spectrum-report"])
def test_exit_code_2_bad_depth(cmd, name, capsys):
    # binary-geometric is transient: its l^1 report used to return before checking depth.
    rc = main([cmd, "--canonical", name, "--depth=-3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "depth" in captured.err


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize(
    "key, spec",
    [("p", {"kind": "random", "low": "1/2", "high": 1}), ("d", {"kind": "random", "max": 3})],
)
def test_exit_code_2_bad_spec_seed(key, spec, seed, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**MINIMAL, key: {**spec, "seed": seed}}))
    rc = main(["classify", "--config", str(path), "--lambda=0.1", "--space=l2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error:" in captured.err and "seed" in captured.err
    assert "Traceback" not in captured.err


def test_exit_code_2_negative_steps(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--canonical", "dendrite", "--steps", "-1", "--out", str(out)])
    assert rc == 2
    assert "steps" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_3_monte_carlo_past_int64():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "juliaspec.cli", "simulate", "--canonical", "dendrite",
         "--start", "9223372036854775000", "--trajectories", "3", "--horizon", "10"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert "budget exceeded" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exit_code_3_monte_carlo_leaves_no_trajectory(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--canonical", "dendrite", "--start", "9223372036854775000",
               "--trajectories", "3", "--horizon", "10", "--steps", "3", "--out", str(out)])
    assert rc == 3
    assert list(tmp_path.iterdir()) == []


_NO_SCIPY_RUN = """
import sys


def heavy():
    return sorted(m for m in sys.modules if m == "jsonschema" or m.split(".")[0] == "scipy")


from juliaspec import cli

print(heavy())
from juliaspec.canonical import canonical_config
from juliaspec.operator import weyl_defect
from juliaspec.verify import _eigen_identity, _hit_probability, _tree_vs_dense

out = sys.argv[1]
assert cli.main(["render", "--canonical", "binary-p34", "--width", "32", "--height", "32",
                 "--max-iter", "60", "--out-prefix", out + "/img"]) == 0
assert cli.main(["truncate", "--canonical", "binary-p34", "--size", "100",
                 "--out-prefix", out + "/tr"]) == 0
rc = canonical_config("binary-p34")
cfg, system = rc.chain(), rc.system()
weyl_defect(cfg, system, 0.3 + 0.2j, 6)
assert _tree_vs_dense(cfg, (3,), (45,))[0]
assert 0 < _hit_probability(cfg, 1, 200) < 1
assert _eigen_identity(cfg, system, [0.3 + 0.2j], 7, 1e-9)[0]
print(heavy())
"""


def test_cli_import_skips_heavy_modules(tmp_path):
    # A module-level import is paid by every CLI start (setup time, peak RSS).
    # scipy is no run-time dependency at all: neither the CLI start nor a
    # render that labels an inside set, a truncate, a Weyl defect or the
    # verify helpers that act on truncations load any of it.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]", proc.stdout
    render = json.loads(proc.stdout[proc.stdout.index("{") : proc.stdout.index("}") + 1])
    assert render["components"] >= 1


def test_exit_code_3_preimage_budget(capsys):
    rc = main(["preimages", "--canonical", "ternary-p12", "--depth", "13"])
    assert rc == 3


def test_exit_code_3_state_overflow(tmp_path, capsys):
    # With p ≡ 1 every step is an up-move, so starting at the capacity
    # ceiling overflows deterministically on the first transition.
    doc = {"p": {"kind": "constant", "value": "1"}, "d": {"kind": "constant", "value": 2}}
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(doc))
    rc = main(["simulate", "--config", str(path),
               "--start", str(2**64 - 1), "--steps", "64"])
    assert rc == 3


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["truncate", "--canonical", "dendrite"])  # --size is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["render", "--canonical", "not-a-config"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    for flag in ("--canonical", "--config"):  # verify always runs every canonical config
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag, "dendrite"])
        assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--canonical", "dendrite", "--steps", "3", "--out", "{dir}/sim.csv"],
        ["verify", "--out", "{dir}/verify-out"],
    ],
)
def test_exit_code_2_seed_out_of_range(argv, seed, tmp_path, capsys):
    rc = main([a.format(dir=tmp_path) for a in argv] + [f"--seed={seed}"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error:" in captured.err and "seed" in captured.err
    assert list(tmp_path.iterdir()) == []


def _run_with_command(tmp_path, cmd, command, *flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**canonical_config("dendrite").to_json(), "command": command}))
    return main([cmd, "--config", str(path), *flags])


@pytest.mark.parametrize(
    "cmd, command",
    [
        ("render", {"width": "abc"}),  # used to end in a traceback
        ("render", {"overlay": "bogus"}),  # used to render with no overlay
        ("render", {"radius": True}),
        ("residual-set", {"depth": [1]}),  # used to end in a TypeError traceback
        ("residual-set", {"out": 1}),  # used to write the CSV to file descriptor 1
        ("residual-set", {"depth": "5"}),  # strings are not integers
        ("residual-set", {"depth": True}),  # booleans are not integers
        ("residual-set", {"depth": 2.5}),
        ("simulate", {"trajectories": False}),
        ("simulate", {"horizon": 1e400}),  # JSON overflows to inf
        ("preimages", {"target": [1]}),
        ("truncate", {"out-prefix": {}}),
    ],
)
def test_exit_code_2_command_entry_of_the_wrong_type(cmd, command, tmp_path, capsys):
    flags = {
        "render": ["--out-prefix", str(tmp_path / "img")],
        "preimages": ["--depth", "1"],
        "truncate": ["--size", "4"],
    }.get(cmd, [])
    assert _run_with_command(tmp_path, cmd, command, *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    key = next(iter(command))
    assert f"config error: config command {key} must be" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_command_entries_read_the_way_json_writes_them(tmp_path, capsys):
    # A number stands for text, an integral float for an integer; null and "" leave a value unset.
    out = tmp_path / "pts.csv"
    assert _run_with_command(tmp_path, "preimages", {"target": 1, "out": str(out)}, "--depth", "2") == 0
    assert capsys.readouterr().out == ""
    assert len(out.read_text().splitlines()) == 1 + 4
    assert _run_with_command(tmp_path, "residual-set", {"depth": 2.0, "out": str(out)}) == 0
    assert out.read_text().splitlines()[1:] == ["1.0,0.0"]  # dendrite's residual set is {1}
    assert _run_with_command(tmp_path, "residual-set", {"depth": None, "out": ""}) == 0
    assert capsys.readouterr().out.splitlines() == ["re,im", "1.0,0.0"]


@pytest.mark.parametrize("command", [{"dpeth": 7}, {"tol": "1e-8"}, {"dpeth": 7, "tol": "1e-8"}])
def test_exit_code_2_command_key_no_subcommand_declares(command, tmp_path, capsys):
    # A misspelt key used to be ignored, and dendrite's depth-5 set was printed with exit 0.
    assert _run_with_command(tmp_path, "residual-set", command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: config command has unknown key" in captured.err


def test_command_keys_of_other_subcommands_are_ignored(tmp_path, capsys):
    # One document serves every subcommand: size is truncate's and width render's.
    assert _run_with_command(tmp_path, "residual-set", {"size": 4, "width": 8, "depth": 2}) == 0
    assert capsys.readouterr().out.splitlines() == ["re,im", "1.0,0.0"]


@pytest.mark.parametrize("bits", [64, 128])
def test_exit_code_2_capacity_bits_is_an_unknown_key(bits, tmp_path, capsys):
    # States are 64-bit: the key that once widened them is refused like any unknown key.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**MINIMAL, "capacity_bits": bits}))
    assert main(["classify", "--config", str(path), "--lambda", "0.5", "--space", "c0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown key 'capacity_bits'" in captured.err


@pytest.mark.parametrize(
    "d",
    [
        {"kind": "constant", "value": 2**20 + 1},
        {"kind": "periodic", "values": [2, 10**8]},
        {"kind": "prefix", "prefix": [2**21], "tail": {"kind": "constant", "value": 2}},
        {"kind": "random", "max": 2**20 + 1, "seed": 1},
    ],
)
def test_exit_code_3_digit_base_past_its_cap(d, tmp_path, capsys):
    # classify on l2 at d = 10^8 used to sum 10^8 terms per level for 17 s, then exit 0.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": {"kind": "harmonic", "c": "1/2", "a": 1}, "d": d}))
    assert main(["classify", "--config", str(path), "--lambda=0.05", "--space", "l2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the cap 1048576" in captured.err


@pytest.mark.parametrize("cmd", ["classify", "spectrum-report"])
def test_depth_help_names_the_residual_candidate_set(cmd):
    # The depth feeds only `residual_l1`, never the point spectrum.
    (text,) = [h for flag, _, _, h in _COMMANDS[cmd][2] if flag == "--depth"]
    assert "residual candidate set" in text and "point spectrum" not in text


@pytest.mark.parametrize("cmd", list(_COMMANDS))
def test_help_shows_every_declared_default(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    text = "".join(capsys.readouterr().out.split())  # argparse wraps lines, at hyphens too
    for flag, kind, default, help_ in _COMMANDS[cmd][2]:
        assert flag in text
        if default is None:
            assert "(default:" in help_  # the help says what an unset value means
        elif default is not _REQUIRED:
            assert "".join(f"(default: {default})".split()) in text, flag


def _run_captured(argv):
    """(exit code, stdout, stderr) of main(argv), a SystemExit code included."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_shared_parser_answers_as_a_fresh_one(monkeypatch):
    # main parses with one parser per process; consecutive calls, a refused
    # one and --help among them, must answer as calls with a fresh parser do.
    argvs = [
        ["classify", "--canonical", "binary-p34", "--lambda", "0.1+0.05i", "--space", "c0"],
        ["classify", "--canonical", "binary-p34", "--lambda", "x"],
        ["classify", "--canonical", "binary-p34", "--budget", "1.5", "--lambda", "0"],
        ["--help"],
        ["truncate", "--help"],
        ["preimages", "--canonical", "dendrite", "--target", "0"],
        ["classify", "--canonical", "dendrite", "--lambda", "0.2", "--space", "l1"],
    ]
    shared = [_run_captured(argv) for argv in argvs]
    assert [code for code, _, _ in shared] == [0, 2, 2, 0, 0, 2, 0]
    assert cli._shared_parser.cache_info().currsize == 1
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    assert [_run_captured(argv) for argv in argvs] == shared


# -- generated argv ----------------------------------------------------------

_COMPLEX = ["0", "1", "0.3+0.2i", "-0.5i", "0.5,-1"]
_TEXT = {"--space": ["c0", "c", "linf", "l2", "l1.5", "l0.5"], "--alphas": ["1,2", "1.5", "0.5", "x"]}
# Per kind: (flag text, wrong flag text, entries, wrong entries).  The right
# type does not make a value valid: negative sizes or an inverted window exit 2.
_POOLS = {
    int: ([str(n) for n in range(-1, 5)], ["x", "1.5", ""],
          [*range(-1, 5), 2.0], [1.5, "3", "x", True, [1], {}]),
    float: (["-1.5", "-0.5", "0", "0.5", "1.5", "2", "nan"], ["x", ""],
            [-1.5, -0.5, 0, 0.5, 1.5, 2.0], ["0.5", "x", True, [1], {}]),
    _path: (["{dir}/out", ""], [], ["{dir}/out", ""], [1, 2.0, True, [1]]),
}


def _pools(flag, kind):
    if isinstance(kind, tuple):
        return list(kind), ["bogus"], list(kind), ["bogus", 1, True]
    if kind is str:
        text = _TEXT.get(flag, _COMPLEX)
        return text, [], text + [1, 0.5], [True, [1], {}]
    return _POOLS[kind]


@st.composite
def _invocations(draw, cmd):
    """(argv, command object) from the command's table: each parameter absent,
    a flag, an entry or both, of the right type in all places but at most one."""
    rows = _COMMANDS[cmd][2]
    wrong = draw(st.sampled_from([None] + [row[0] for row in rows]))
    flags, command = [], {}
    for flag, kind, default, _ in rows:
        if cmd == "verify" and flag == "--seed":
            # An accepted seed (or none) runs the whole suite: draw only refused ones.
            flags.append(f"--seed={draw(st.sampled_from(['-1', str(2**64), 'x']))}")
            continue
        good_flag, bad_flag, good_entry, bad_entry = _pools(flag, kind)
        how = "flag" if default is _REQUIRED else draw(st.sampled_from(["", "flag", "entry", "both"]))
        if how in ("flag", "both"):
            text = draw(st.sampled_from(bad_flag if flag == wrong and bad_flag else good_flag))
            flags.append(f"{flag}={text}")
        if how in ("entry", "both"):
            command[flag[2:]] = draw(st.sampled_from(bad_entry if flag == wrong else good_entry))
    return [cmd] + flags, command


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@pytest.mark.parametrize("cmd", list(_COMMANDS))
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_generated_argv_exit_with_a_documented_code(cmd, data, argv_dir):
    argv, command = data.draw(_invocations(cmd))
    name = data.draw(st.sampled_from(CANONICAL_NAMES))
    doc = {**canonical_config(name).to_json(), "command": command}
    path = argv_dir / "cfg.json"
    path.write_text(json.dumps(doc).replace("{dir}", str(argv_dir)))
    if cmd != "verify":
        argv += ["--config", str(path)]
    out, err = StringIO(), StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.chdir(argv_dir)  # unset output prefixes land here
        try:
            code = main([a.replace("{dir}", str(argv_dir)) for a in argv])
        except SystemExit as exc:  # argparse refused the argv
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, command, err.getvalue())
    assert "Traceback" not in err.getvalue()
