"""Module layering: every public name is called and every defaulted
parameter passed, imports sit at module level, the decomposition layer
stays below the certificate layer, the model questions are answered by
the model classes of `backends.py` over one piece class, each kernel fact
has one rule (one overlap rule, one antichain lookup, one tail addition,
one sibling-merge loop, one piece constructor), and the front end does
each job once (one artifact writer, one JSON encoder, one self-test
loop, exit codes returned)."""

import ast
from pathlib import Path
from typing import Iterator

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fullgroup"
BENCH = SRC.parent.parent / "bench"
MODULES = sorted(SRC.glob("*.py"))

# Public functions and classes that nothing in src/ or bench/ calls, each
# with the reason it stays.
UNCALLED_PUBLIC = {
    "apply_point": "the pointwise oracle: the compose and inverse tests "
                   "compare elements against it point by point",
}

# Defaulted parameters of public functions and methods that no call in
# src/ or bench/ passes, each with the reason it stays.
UNPASSED_DEFAULTS = {
    "main(argv)": "the tests drive the CLI in-process through it; the "
                  "console script and `python -m fullgroup` read sys.argv",
}

# The algorithm choices that still ask which model they run on, outside
# backends.py: the closure parking set (certificates), the small-support
# decomposition (decompose) and the samplers (randomize).  A measure
# condition that is vacuous on the shift, and piece syntax, go through
# methods of the model class.
IS_ODOMETER_SITES = {"certificates.py": 1, "decompose.py": 1, "randomize.py": 2}
# Where the (u;+n) form of an odometer piece is built or read.
POWER_FORM_MODULES = {"__init__.py", "backends.py", "randomize.py"}
# What every model class of backends.py sets, and what it answers.
MODEL_ATTRIBUTES = {"prefix", "is_odometer"}
MODEL_PROTOCOL = {"format_piece", "parse_pieces", "check_pieces", "separated_word",
                  "measure_below", "measure_equal", "measure_depth", "reserved_cylinder",
                  "pair_into", "pair_onto"}
# What compose, inverse and restrict call on a piece.
PIECE_PROTOCOL = {"restrict", "after", "pull_back", "inverse", "merge_siblings"}
# The cold sites that may build a piece with the named tuple's own
# constructor, each a constant: the whole-space piece that (u;+n)
# restricts, and the identity element's one piece.
PIECE_CONSTANT_SITES = {"backends.py:OdometerPiece", "elements.py:identity"}
# The kernel rules, which build every piece they return through new_piece.
PIECE_BUILDERS = {
    "backends.py:Piece.restrict", "backends.py:Piece.inverse", "backends.py:Piece.after",
    "backends.py:Piece.pull_back", "backends.py:Piece.merge_siblings",
    "backends.py:pair_cylinders", "backends.py:FullShift.pair_into",
    "backends.py:FullShift.pair_onto", "backends.py:FullShift.parse_pieces",
    "elements.py:inverse", "elements.py:_assembled"}


def imported_modules(tree: ast.AST) -> set[str]:
    """The fullgroup modules a parsed module imports, by bare name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                names.add(node.module.split(".")[0])
            elif node.level:
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("fullgroup."):
                names.add(node.module.split(".")[1])
    return names


def _referenced(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names a tree reads, bare or as an attribute, outside `skip`."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_public_api_is_called():
    # every module-level public function and class of the library is
    # referenced in src/ or bench/ outside its own definition; the
    # re-exports of __init__.py do not count
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in MODULES if path.name != "__init__.py"}
    outside = set().union(*(_referenced(ast.parse(path.read_text(encoding="utf-8")))
                            for path in BENCH.glob("*.py")))
    uncalled = set()
    for name, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in outside
                    and not any(node.name in _referenced(other, node if other is tree else None)
                                for other in trees.values())):
                uncalled.add(node.name)
    assert uncalled == set(UNCALLED_PUBLIC), f"public names nothing calls: {sorted(uncalled)}"


def _defaulted(fn: ast.FunctionDef, method: bool) -> Iterator[tuple[str, int | None]]:
    """A function's defaulted parameters, each with the index a call's
    positional argument takes to pass it (None for keyword-only); a
    method's call leaves out self or cls."""
    positional = fn.args.posonlyargs + fn.args.args
    shift = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                               for d in fn.decorator_list)
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - shift
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether a call may pass the parameter: by keyword, by position, or
    through a starred or double-starred argument."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_defaulted_parameters_are_passed():
    # every defaulted parameter of a public function or method of the
    # library is passed by some call in src/ or bench/: a default nothing
    # overrides is a constant, not a parameter
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in [*MODULES, *BENCH.glob("*.py")]]
    unpassed = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [("", fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        functions += [(f"{cls.name}.", fn) for cls in tree.body
                      if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                      for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for owner, fn in functions:
            if fn.name.startswith("_"):
                continue
            calls = [call for other in trees for call in _calls(other, fn.name)]
            unpassed |= {f"{owner}{fn.name}({param})"
                         for param, index in _defaulted(fn, bool(owner))
                         if not any(_passes(call, param, index) for call in calls)}
    assert unpassed == set(UNPASSED_DEFAULTS), f"defaults no call passes: {sorted(unpassed)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    local = [f"{fn.name}:{node.lineno}"
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not local, f"imports inside function bodies: {local}"


def test_encoding_names_no_model():
    # a model writes and reads its own pieces, and encoding looks a model
    # up by its tag prefix in backends.MODELS, so a new model needs no
    # edit of encoding.py
    tree = ast.parse((SRC / "encoding.py").read_text(encoding="utf-8"))
    names = _referenced(tree) | {alias.name for node in ast.walk(tree)
                                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"Odometer", "FullShift", "OdometerPiece", "is_odometer", "power_of"}


def test_decompose_below_certificates():
    tree = ast.parse((SRC / "decompose.py").read_text(encoding="utf-8"))
    assert not imported_modules(tree) & {"certificates", "encoding"}


def test_is_odometer_sites_are_pinned():
    counts = {}
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "is_odometer"
                 or isinstance(node, ast.Name) and node.id == "is_odometer"
                 and isinstance(node.ctx, ast.Load)]
        if path.name == "backends.py":
            # the model classes set it; no expression there reads it
            assert not reads, f"backends.py reads is_odometer on lines {reads}"
        elif reads:
            counts[path.name] = len(reads)
    assert counts == IS_ODOMETER_SITES


def test_models_define_the_model_protocol():
    # a model class is a subclass of BackendId in backends.py; each sets
    # the class attributes and defines every model method
    tree = ast.parse((SRC / "backends.py").read_text(encoding="utf-8"))
    models = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              and any(isinstance(b, ast.Name) and b.id == "BackendId" for b in node.bases)}
    missing = {}
    for name, node in models.items():
        assigned = {t.id for stmt in node.body if isinstance(stmt, ast.Assign)
                    for t in stmt.targets if isinstance(t, ast.Name)}
        methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        gaps = (MODEL_ATTRIBUTES - assigned) | (MODEL_PROTOCOL - methods)
        if gaps:
            missing[name] = sorted(gaps)
    assert len(models) >= 2 and not missing, f"model members missing: {missing}"


def test_split_reads_no_bernoulli_volume():
    # the split must hold on the shift, which preserves no measure: its
    # measure conditions go through the backend
    tree = ast.parse((SRC / "certificates.py").read_text(encoding="utf-8"))
    split = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                 and node.name == "split_nontrivial_support")
    calls = [node.lineno for node in ast.walk(split) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "volume"]
    assert not calls, f"volume() called on lines {calls}"


def test_power_form_named_only_where_pieces_are_built_or_read():
    # the (u;+n) conversion is OdometerPiece one way and Odometer.power_of
    # the other; no piece has a power to read
    naming, reading, powers = set(), set(), []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
                 | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names})
        if "OdometerPiece" in names:
            naming.add(path.name)
        reading |= {f"{path.name}:{name}" for name in _callers(path, "power_of")}
        powers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == "power"]
    assert naming <= POWER_FORM_MODULES
    assert reading == {"backends.py:Odometer.format_piece",
                       "backends.py:Odometer.separated_word"}
    assert not powers, f"power read on {powers}"


def test_one_piece_class_defines_the_piece_protocol():
    # the piece class is the one class of backends.py with a `source`
    # field; it defines every method of the protocol, and no union of
    # piece classes is left
    tree = ast.parse((SRC / "backends.py").read_text(encoding="utf-8"))
    pieces = {node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
              for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              and any(isinstance(field, ast.AnnAssign) and field.target.id == "source"
                      for field in node.body)}
    assert set(pieces) == {"Piece"}
    assert PIECE_PROTOCOL <= pieces["Piece"], sorted(PIECE_PROTOCOL - pieces["Piece"])
    assert not [node for node in tree.body if isinstance(node, ast.Assign)
                and "Piece" in [getattr(t, "id", None) for t in node.targets]]


def test_odometer_pieces_name_their_base():
    # OdometerPiece's base defaults to 2, so a call in the library that
    # left it out would build a valid but wrong piece on any other base
    calls = [f"{path.name}:{call.lineno}" for path in MODULES
             for call in _calls(ast.parse(path.read_text(encoding="utf-8")), "OdometerPiece")
             if len(call.args) < 3 and not any(k.arg == "base" for k in call.keywords)]
    assert not calls, f"OdometerPiece without a base: {calls}"


def test_one_antichain_lookup():
    # "which items of a sorted antichain meet [w]" is clopen.meeting, so
    # only clopen.py bisects
    importing = {path.name for path in MODULES
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom) and node.module == "bisect"
                 or isinstance(node, ast.Import) and "bisect" in [a.name for a in node.names]}
    assert importing == {"clopen.py"}


def test_one_tail_addition():
    # the piece rules that move a tail add the carry through add_to_tail;
    # after and pull_back build only the pieces they return, never a
    # restricted or inverted piece first
    functions = dict(_functions(ast.parse((SRC / "backends.py").read_text(encoding="utf-8"))))
    assert _callers(SRC / "backends.py", "add_to_tail") == {
        "Piece.restrict", "Piece.after", "Piece.pull_back"}
    for name in ("Piece.after", "Piece.pull_back"):
        assert not _calls(functions[name], "restrict") + _calls(functions[name], "inverse")


def test_one_piece_constructor():
    # the kernel rules build pieces through backends.new_piece, tuple.__new__
    # on Piece in C, the only tuple.__new__ of the library; Piece(...), whose
    # named-tuple __new__ runs in Python, stays at the named constant sites
    building, through_new_piece = set(), set()
    for name in ("backends.py", "elements.py"):
        building |= {f"{name}:{fn}" for fn in _callers(SRC / name, "Piece")}
        through_new_piece |= {f"{name}:{fn}" for fn in _callers(SRC / name, "new_piece")}
    assert building == PIECE_CONSTANT_SITES, sorted(building - PIECE_CONSTANT_SITES)
    assert through_new_piece == PIECE_BUILDERS, sorted(through_new_piece ^ PIECE_BUILDERS)
    # tuple.__new__ checks no arity, so each call passes a literal triple
    loose = [f"{name}:{call.lineno}" for name in ("backends.py", "elements.py")
             for call in _calls(ast.parse((SRC / name).read_text(encoding="utf-8")), "new_piece")
             if not (len(call.args) == 1 and isinstance(call.args[0], ast.Tuple)
                     and len(call.args[0].elts) == 3)]
    assert not loose, f"new_piece without a (source, target, carry) triple: {loose}"
    tree = ast.parse((SRC / "backends.py").read_text(encoding="utf-8"))
    defined = [ast.unparse(node.value) for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["new_piece"]]
    assert defined == ["partial(tuple.__new__, Piece)"]
    uses = [f"{path.name}:{node.lineno}" for path in MODULES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "__new__"
            and ast.unparse(node.value) == "tuple"]
    assert len(uses) == 1, uses


def test_one_element_assembly():
    # an element's pieces are checked only in _assembled, which the checked
    # constructor and the identity fill share: the fill never hands its
    # result to the constructor to be walked again
    path = SRC / "elements.py"
    assert _callers(path, "check_cylinders") == {"_assembled"}
    assert _callers(path, "check_pieces") == {"_assembled"}
    assert _callers(path, "_assembled") == {"GroupElement.__post_init__", "element_from_pieces"}
    assert "element_from_pieces" not in _callers(path, "GroupElement")


def test_no_isinstance_on_pieces():
    # a model's rule on its pieces is its check_pieces, never a type test
    found = [f"{path.name}:{call.lineno}" for path in MODULES
             for call in _calls(ast.parse(path.read_text(encoding="utf-8")), "isinstance")
             if "Piece" in ast.unparse(call.args[1])]
    assert not found, f"isinstance on a piece class: {found}"


def test_one_overlap_rule():
    # "cylinders overlap" is formatted only by clopen.check_cylinders, and
    # no wrapper in backends.py re-checks what pair_onto's callers know
    formatting = {path.name for path in MODULES
                  for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "cylinders overlap" in node.value}
    assert formatting == {"clopen.py"}
    tree = ast.parse((SRC / "backends.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "matching_pieces" not in defined


def test_a_bisection_is_checked_by_its_constructor():
    # the overlap rule of a bisection is asked only by its constructor, so
    # no validator sits beside it; a transfer pairs through the model, as
    # the swap does with pair_onto, and involution_from_partial checks what
    # the pairing built, without a second comparison
    path = SRC / "backends.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "validate_bisection" not in {node.name for node in tree.body
                                        if isinstance(node, ast.FunctionDef)}
    assert _callers(path, "check_cylinders") == {"Bisection.__post_init__"}
    involution = dict(_functions(ast.parse((SRC / "transfers.py").read_text(
        encoding="utf-8"))))["_transfer_involution"]
    assert _calls(involution, "pair_into") and not _calls(involution, "compare_clopen")


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == name
                 or isinstance(node.func, ast.Attribute) and node.func.attr == name)]


def _merges_families(loop: ast.AST) -> bool:
    """Whether a loop joins a sibling family (`merge_siblings`, or a bare
    `join(...)`) or drops the top of a stack (`del stack[-k:]`)."""
    joins = _calls(loop, "merge_siblings") + [
        call for call in _calls(loop, "join") if isinstance(call.func, ast.Name)]
    drops = [node for node in ast.walk(loop) if isinstance(node, ast.Delete)
             and any(isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Slice)
                     for t in node.targets)]
    return bool(joins or drops)


def test_one_sibling_merge_loop():
    # only clopen.merge_families runs a sibling-merge loop, so a second
    # merge path cannot fork beside it (say, one for compose's runs)
    loops = {f"{path.name}:{fn.name}"
             for path in MODULES
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for loop in ast.walk(fn)
             if isinstance(loop, (ast.For, ast.While)) and _merges_families(loop)}
    assert loops == {"clopen.py:merge_families"}


def test_compose_merges_through_merge_families():
    # elements.py calls no merge_siblings: it passes Piece.merge_siblings,
    # whose signature is the join's, only to merge_families (compose among
    # others), with no wrapper frame between them
    tree = ast.parse((SRC / "elements.py").read_text(encoding="utf-8"))
    functions = {fn.name: fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert not _calls(tree, "merge_siblings")
    passed = [arg for call in _calls(tree, "merge_families") for arg in call.args]
    named = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and node.attr == "merge_siblings"]
    assert named and all(any(node is arg for arg in passed) for node in named)
    assert _calls(functions["compose"], "merge_families")


def test_one_involution_path_in_transfers():
    # the library's own pieces become an involution only through
    # involution_from_partial naming them (`own`), which makes an overlap
    # a bug; gw_intertwining builds its partial from its comparison
    # witnesses, not from whole-space transfers or a second constructor
    calls = {path.name: _calls(ast.parse(path.read_text(encoding="utf-8")),
                               "involution_from_partial") for path in MODULES}
    assert {name for name, found in calls.items() if found} == {
        "certificates.py", "decompose.py", "transfers.py"}
    unnamed = [f"{name}:{call.lineno}" for name, found in calls.items() for call in found
               if len(call.args) + len(call.keywords) < 3]
    assert not unnamed, f"involutions of own pieces without a name: {unnamed}"
    tree = ast.parse((SRC / "transfers.py").read_text(encoding="utf-8"))
    gw = next(fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
              and fn.name == "gw_intertwining")
    assert not _calls(gw, "full_group_transfer") + _calls(gw, "element_from_pieces")
    assert _calls(gw, "compare_clopen") and _calls(gw, "involution_from_partial")


def _functions(tree: ast.AST):
    """Every function of a module, by its qualified name (Class.method)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield f"{node.name}.{fn.name}", fn
        elif isinstance(node, ast.Module):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield fn.name, fn


def test_one_certificate_fold():
    # only GroupWord.evaluate composes over a word's tokens (the pair
    # compression and the left fold), and ConjugateProduct.evaluate
    # delegates to it instead of composing a second way
    folding = set()
    for path in MODULES:
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            names = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
            attrs = {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)}
            if "compose" in names and "tokens" in attrs:
                folding.add(f"{path.name}:{name}")
    assert folding == {"certificates.py:GroupWord.evaluate"}
    tree = ast.parse((SRC / "certificates.py").read_text(encoding="utf-8"))
    product = dict(_functions(tree))["ConjugateProduct.evaluate"]
    assert _calls(product, "evaluate")
    assert not {node.id for node in ast.walk(product) if isinstance(node, ast.Name)} & {
        "compose", "reduce", "inverse"}


def test_one_grammar_per_shape():
    # Re-Pair runs only through the memo: _pair_rules is read once, as the
    # function that lru_cache bounds by a module constant, and only
    # GroupWord.evaluate calls the memo
    path = SRC / "certificates.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
             and node.id == "_pair_rules"]
    memos = [call for call in ast.walk(tree) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Call) and _calls(call.func, "lru_cache")]
    assert len(reads) == 1 and [memo.args[0] for memo in memos] == reads
    assert [(k.arg, type(k.value)) for k in memos[0].func.keywords] == [("maxsize", ast.Name)]
    assert _callers(path, "_grammar") == {"GroupWord.evaluate"}
    assert not [other.name for other in MODULES if other != path and "_pair_rules"
                in _referenced(ast.parse(other.read_text(encoding="utf-8")))]


def test_closure_checks_compose_nothing():
    # the closure factors' checks read tau(D) and gamma(a) as chains of
    # images of the sets; no element is composed to be tested
    closure = dict(_functions(ast.parse((SRC / "certificates.py").read_text(
        encoding="utf-8"))))["_atomic_closure_factors"]
    assert not [call.lineno for name in ("compose", "commutator", "conjugate")
                for call in _calls(closure, name)]
    assert _calls(closure, "_image")


def _callers(path: Path, name: str, where=lambda call: True) -> set[str]:
    """The functions of a module that call `name` (bare or as an attribute)
    in a call for which `where` holds; module-level code is "<module>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inside = {id(call): fn_name for fn_name, fn in _functions(tree)
              for call in _calls(fn, name)}
    return {inside.get(id(call), "<module>") for call in _calls(tree, name) if where(call)}


def _opens_for_writing(call: ast.Call) -> bool:
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
               for m in modes)


def test_one_artifact_writer():
    # every command's output leaves through cli._emit, which writes the
    # --out file before it prints anything
    assert _callers(SRC / "cli.py", "open", _opens_for_writing) == {"_emit"}


def test_exit_codes_are_returned():
    # commands return their exit code to main; only the __main__ guard
    # turns it into a process exit, and nothing catches SystemExit
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and "__main__" in ast.unparse(node.test))
    exits = _calls(tree, "exit") + _calls(tree, "_exit")
    assert exits and all(any(call is node for node in ast.walk(guard)) for call in exits)
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Name)
                and node.id == "SystemExit"]


def test_one_json_encoder():
    # every JSON artifact, certificates included, is encoded by
    # encoding.encode_artifact, which adds the format version
    dumping = {f"{path.name}:{name}" for path in MODULES
               for name in _callers(path, "dumps")}
    assert dumping == {"encoding.py:encode_artifact"}
    versioned = {path.name for path in MODULES
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Constant) and node.value == "format_version"}
    assert versioned == {"encoding.py", "certificates.py"}


def test_one_selftest_loop():
    # run_selftest draws each suite's substream and runs its trials; a
    # suite is one trial
    assert _callers(SRC / "selftest.py", "substream") == {"run_selftest"}
