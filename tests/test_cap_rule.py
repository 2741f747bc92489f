"""Every `check_int` in the package has a cap, or a reason here why it needs none.

An integer that sizes work or memory is refused above its cap by
`check_int(what, v, lo, cap)`.  This test finds, by the syntax tree, every
call in `src/juliaspec` that passes no cap, keyed by (module, function), and
compares that set with the allowlist below.  A new uncapped integer then
fails until it is capped or its line here says what bounds it instead.
"""

import ast
from pathlib import Path

import juliaspec

# (module, function) -> what bounds the integer instead of a cap.
ALLOWED = {
    ("chain", "ChainConfig.simulate"): "a seed: sizes nothing",
    ("chain", "ChainConfig.return_statistics"):
        "trajectories and horizon size time only: 4096 generators and one block "
        "of uniforms are held at a time; and a seed",
    ("chain", "ChainConfig.harmonic_value"): "a state: bounded by the 64-bit capacity",
    ("numeration", "BaseSequence.place_value"):
        "q_j >= 2^j, so an index past 64 overflows the 64-bit capacity",
    ("numeration", "BaseSequence._check_state"): "a state: bounded by the 64-bit capacity",
    ("dynamics", "FiberedSystem.orbit"): "read through FiberedSystem.level, capped at 2^20 levels",
    ("dynamics", "escape_classify"): "the start level: read through FiberedSystem.level, capped",
    ("dynamics", "preimages"): "followed by the leaves cap on q_depth",
    ("dynamics", "level_tree"): "read through preimages, which caps its leaves",
    ("dynamics", "residual_set"): "read through preimages, which caps its leaves",
    ("spectra", "residual_l1"): "read through residual_set, which caps its leaves",
    ("operator", "SparseTruncation._check_index"): "bounded by the truncation size",
    ("operator", "weyl_vector"): "a level: q_level is bounded by the 64-bit capacity, "
        "and the size that follows is capped",
    ("operator", "column0_coefficient"): "read through success_prefix(level + 1), capped at 65",
    ("operator", "weyl_defect"): "a level: q_level is bounded by the 64-bit capacity, "
        "and the truncation of size 2 q_level is capped",
    ("sequences", "_check_seed"): "a seed: sizes nothing",
}


def _uncapped_calls():
    found = set()
    for path in sorted(Path(juliaspec.__file__).parent.glob("*.py")):
        module = path.stem

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    visit(child, (*scope, child.name))
                    continue
                if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "check_int":
                    cap = child.args[3] if len(child.args) > 3 else next(
                        (k.value for k in child.keywords if k.arg == "cap"), None)
                    if cap is None or isinstance(cap, ast.Constant) and cap.value is None:
                        found.add((module, ".".join(scope)))
                visit(child, scope)

        visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_every_uncapped_check_int_is_allowlisted():
    assert _uncapped_calls() == set(ALLOWED)
