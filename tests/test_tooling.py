"""The benchmark's per-layer trace hooks name code that exists in src/, and
source-level rules that keep one definition of a group, proof-layer or file
format fact."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "starlock"


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_in_src() -> None:
    tracer = load_tracer()
    for name in tracer.MODULES:
        assert Path(importlib.import_module(f"starlock.{name}").__file__).parent == SRC
    for prefix, modname, path, _, _ in tracer.TARGETS:
        scope = vars(importlib.import_module(f"starlock.{modname}"))
        owner, _, attr = path.rpartition(".")
        if owner:  # a method must be defined on its class itself
            assert isinstance(scope.get(owner), type), prefix
            scope = vars(scope[owner])
        assert attr in scope, prefix
        assert callable(scope[attr]) or isinstance(scope[attr], classmethod), prefix


def test_subgroup_membership_is_defined_only_in_group_py() -> None:
    """No module but group.py raises to a `.q` exponent with pow(x, y.q, p):
    membership is GroupParams.is_element."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "group.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "pow" and len(node.args) == 3
                    and isinstance(node.args[1], ast.Attribute) and node.args[1].attr == "q"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_the_signed_form_is_computed_only_in_group_py() -> None:
    """No module but group.py subtracts anything but a constant from a `p`
    (`p - x`, `gp.p - x`, so no `min(x, p - x)` either): every element that
    is published, hashed or compared takes its signed form from
    GroupParams.signed."""
    def is_p(node):
        return (isinstance(node, ast.Name) and node.id == "p"
                or isinstance(node, ast.Attribute) and node.attr == "p")

    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "group.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and is_p(node.left) and not isinstance(node.right, ast.Constant)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_the_power_of_a_recurring_base_is_chosen_only_in_group_py() -> None:
    """No module but group.py holds a conditional expression whose test reads
    `.large` and whose branches name `comb` (`gp.comb if gp.large else pow`):
    GroupParams.comb chooses between a comb table and pow for every caller."""
    def names(node, word):
        return any(isinstance(n, ast.Attribute) and n.attr == word
                   or isinstance(n, ast.Name) and n.id == word for n in ast.walk(node))

    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "group.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.IfExp) and names(node.test, "large")
                    and (names(node.body, "comb") or names(node.orelse, "comb"))):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_hex_is_parsed_only_in_serialize_py() -> None:
    """No module but serialize.py calls hex_to_int, int(x, 16) or bytes.fromhex
    on a value that is not a constant: the hex wire format and its strict
    check live in one place."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "serialize.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func, arg = node.func, node.args[0]
            parses_hex = (
                isinstance(func, ast.Name) and func.id == "hex_to_int"
                or isinstance(func, ast.Name) and func.id == "int" and len(node.args) == 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == 16
                or isinstance(func, ast.Attribute) and func.attr in ("fromhex", "hex_to_int")
            )
            if parses_hex and not isinstance(arg, ast.Constant):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_chaum_pedersen_py_batches_proof_equations() -> None:
    """No module but chaum_pedersen.py names Collect or calls .holds(): every
    batch, and its per-proof re-run when it fails, goes through
    chaum_pedersen.batched."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "chaum_pedersen.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names_collect = (
                isinstance(node, ast.Name) and node.id == "Collect"
                or isinstance(node, ast.Attribute) and node.attr == "Collect"
                or isinstance(node, ast.alias) and node.name == "Collect"
            )
            calls_holds = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                           and node.func.attr == "holds")
            if names_collect or calls_holds:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_serialize_py_reads_or_writes_json_files() -> None:
    """No module but serialize.py calls json.load or json.dump: every JSON file
    goes through serialize.load_json and serialize.dump_json (json.loads and
    json.dumps on strings stay allowed)."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "serialize.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "dump")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"
                    or isinstance(node, ast.ImportFrom) and node.module == "json"
                    and {a.name for a in node.names} & {"load", "dump"}):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_a_board_index_is_built_only_by_read_board_and_the_board() -> None:
    """BoardIndex is called only in boardformat.read_board and Board.__init__:
    every command reads a board file through read_board, so no second reader
    of the format can come back."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}  # node -> its innermost enclosing function (ast.walk goes outside in)
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, scope.name) for node in ast.walk(scope))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "BoardIndex" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(f"{path.name}:{owner.get(node, '<module>')}")
    assert sorted(calls) == ["board.py:__init__", "boardformat.py:read_board"]


def test_canonical_form_is_judged_only_by_the_reader_and_the_writer() -> None:
    """canonical_json is called only in boardformat.read_board, which judges
    each line's canonical form as it reads it, and in Board._append, which
    writes each line in that form: no second pass over a board re-encodes it."""
    calls = []

    def visit(path, node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and "canonical_json" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            calls.append(f"{path.name}:{scope or '<module>'}")
        for child in ast.iter_child_nodes(node):
            visit(path, child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    assert sorted(calls) == ["board.py:Board._append", "boardformat.py:read_board"]


def test_decryption_contexts_and_column_bounds_are_built_only_in_boardformat_py() -> None:
    """No module but boardformat.py calls enc_str("tally") or enc_str("spoiled")
    or names tally_context, spoiled_context or column_bound: each decrypted
    column's statement is a boardformat.ColumnStatement row, which the tally
    and the verifier both read."""
    builders = {"tally_context", "spoiled_context", "column_bound"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "boardformat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            builds_context = (
                isinstance(node, ast.Call) and node.args and "enc_str" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value in ("tally", "spoiled"))
            names_builder = (
                isinstance(node, ast.Name) and node.id in builders
                or isinstance(node, ast.Attribute) and node.attr in builders
                or isinstance(node, ast.alias) and node.name in builders
                or isinstance(node, ast.FunctionDef) and node.name in builders)
            if builds_context or names_builder:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_sets_of_entry_statuses_are_defined_only_in_boardformat_py() -> None:
    """No module but boardformat.py lists two or more of CAST, SPOILED and
    UNTALLIED in one tuple, list or set literal: which statuses an entry may
    carry is boardformat.STATUSES, and which carry a decryption line is
    boardformat.DECRYPTED."""
    statuses = {"CAST", "SPOILED", "UNTALLIED"}
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "boardformat.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)) and sum(
                    (getattr(elt, "id", None) or getattr(elt, "attr", None)) in statuses
                    for elt in node.elts) >= 2:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_hashed_layouts_are_defined_only_in_serialize_py() -> None:
    """No module but serialize.py defines canonical_bytes (an alias of
    Record.canonical_bytes aside), and no module defines a *_transcript
    function: a record's hashed bytes are derived from its FIELDS, and every
    proof transcript is built by fiatshamir.fiat_shamir_challenge."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                bad = (node.name.endswith("_transcript")
                       or node.name == "canonical_bytes" and path.name != "serialize.py")
            elif isinstance(node, ast.Assign):
                bad = (any(getattr(t, "id", None) == "canonical_bytes" for t in node.targets)
                       and ast.unparse(node.value) != "Record.canonical_bytes")
            else:
                continue
            if bad:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_reads_the_environment() -> None:
    """No module reads os.environ or calls os.getenv: every input a command
    takes is a flag or a file, so a run depends on nothing the shell sets."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                    or isinstance(node, ast.ImportFrom) and node.module == "os"
                    and {a.name for a in node.names} & {"environ", "getenv"}):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
