"""Every postcondition of `transfers.py` and `backends.py` fires.  Each row
patches what one check reads, runs the CLI command that reaches the check,
and expects exit 4 with the check's exact message on one line.  A pin
collects those modules' `PostconditionError` and `_require` messages
through the AST, so a check added there without a row fails here."""

import ast
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from fullgroup import transfers
from fullgroup.backends import Odometer, Piece
from fullgroup.cli import main
from fullgroup.clopen import ClopenSet
from fullgroup.elements import identity
from fullgroup.encoding import parse_element

from conftest import first_range_emptied, overlapping_pairing

SRC = Path(__file__).resolve().parent.parent / "src" / "fullgroup"
# the modules whose every postcondition message must have a row
PINNED_MODULES = ("backends.py", "transfers.py")

SWAP = ("swap", "b2:{00}", "b2:{10}", "--backend", "odo2")
TRANSFER = ("transfer", "b2:{00}", "b2:{1}", "--backend", "odo2")
# B inside A: the inside case, which runs only on the shift
TRANSFER_INSIDE = ("transfer", "b2:{0}", "b2:{00}", "--backend", "shift2")
CYCLIC = ("transfer", "--commutator", "b2:{000}", "b2:{1}", "--backend", "odo2")
COMMUTATOR_INSIDE = ("transfer", "--commutator", "b2:{0}", "b2:{00}", "--backend", "shift2")
GW = ("gw", "b2:{0}", "b2:{1}", "--backend", "odo2", "--rounds", "1")


def patched(*setting):
    """A patch that runs monkeypatch.setattr(*setting): (object, name, value),
    or (dotted path, value)."""
    return lambda monkeypatch: monkeypatch.setattr(*setting)


def whole_space(name):
    """transfers.`name` (an image or a support) reads as the whole space."""
    return patched(transfers, name, lambda f, *_: ClopenSet.whole(f.base))


def whole_for_commutators(name):
    """transfers.`name` reads as the whole space for an element that
    transfers.commutator returned, and as itself for every other one."""
    def patch(monkeypatch):
        made = []
        real_commutator, real = transfers.commutator, getattr(transfers, name)

        def recording(f, g):
            gamma, witness = real_commutator(f, g)
            made.append(gamma)
            return gamma, witness
        monkeypatch.setattr(transfers, "commutator", recording)
        monkeypatch.setattr(transfers, name, lambda f, *rest: (
            ClopenSet.whole(f.base) if f in made else real(f, *rest)))
    return patch


def whole_support_transfer(monkeypatch):
    """The commutator's first transfer returns the shift's swap of [0] and
    [1], whose support is the whole space."""
    real = transfers.full_group_transfer
    swap = parse_element("elem:shift2:[(0>1),(1>0)]")
    monkeypatch.setattr(transfers, "full_group_transfer",
                        lambda *args: replace(real(*args), element=swap))


def with_full_range(monkeypatch):
    """Each round's witness reports the whole space as its range."""
    real = transfers.source_range
    monkeypatch.setattr(transfers, "source_range",
                        lambda witness: (real(witness)[0], ClopenSet.whole(witness.base)))


def depth_changing_pairing(backend, S, T, **_):
    """A broken stand-in for `backends.pair_cylinders`: each word of S is
    mapped onto the first word of T, at another depth."""
    return [Piece(u, T.words[0]) for u in S.words]


# (template, argv, patch, message): the template is the check's message as
# the source writes it, each placeholder as {}
ROWS = {
    "swap-image": (
        "swap image is not exactly B", SWAP, whole_space("image_of_clopen"),
        "swap image is not exactly B"),
    "swap-support": (
        "swap support is not the symmetric difference", SWAP, whole_space("support"),
        "swap support is not the symmetric difference"),
    "transfer-image": (
        "transfer image escapes the target", TRANSFER, whole_space("image_of_clopen"),
        "transfer image escapes the target"),
    "transfer-support": (
        "transfer support too large", TRANSFER, whole_space("support"),
        "transfer support too large"),
    "transfer-pieces": (
        "{} overlap: {}", ("transfer", "b2:{00,010}", "b2:{1}", "--backend", "odo2"),
        patched("fullgroup.backends.pair_cylinders", overlapping_pairing),
        "transfer pieces overlap: involution pieces must have disjoint sources and "
        "ranges: source cylinders overlap: (1, 0, 0) vs (1, 0, 0)"),
    "inside-transfer-image": (
        "inside-case transfer image escapes the target", TRANSFER_INSIDE,
        whole_space("image_of_clopen"), "inside-case transfer image escapes the target"),
    "inside-transfer-reserved": (
        "inside-case transfer does not avoid the reserved cylinder", TRANSFER_INSIDE,
        whole_space("support"), "inside-case transfer does not avoid the reserved cylinder"),
    "commutator-product": (
        "commutator does not reduce to beta*alpha", CYCLIC,
        patched(transfers, "compose", lambda f, g: identity(f.backend)),
        "commutator does not reduce to beta*alpha"),
    "cyclic-image": (
        "cyclic transfer escapes the target", CYCLIC,
        whole_for_commutators("image_of_clopen"), "cyclic transfer escapes the target"),
    "cyclic-support": (
        "cyclic transfer support too large", CYCLIC, whole_for_commutators("support"),
        "cyclic transfer support too large"),
    "inside-commutator-first-support": (
        "inside-case transfer support filled the space", COMMUTATOR_INSIDE,
        whole_support_transfer, "inside-case transfer support filled the space"),
    "inside-commutator-image": (
        "inside-case commutator escapes B", COMMUTATOR_INSIDE,
        whole_for_commutators("image_of_clopen"), "inside-case commutator escapes B"),
    "inside-commutator-support": (
        "inside-case commutator support filled the space", COMMUTATOR_INSIDE,
        whole_for_commutators("support"), "inside-case commutator support filled the space"),
    "gw-anchor-depth": (
        "anchor escaped its residual neighbourhood", GW,
        patched(ClopenSet, "word_containing", lambda self, point: None),
        "anchor escaped its residual neighbourhood"),
    "gw-round-witness": (
        "round witness does not map its annulus into its target", GW, with_full_range,
        "round witness does not map its annulus into its target"),
    "gw-anchors": (
        "anchors escaped their residuals", GW,
        patched(ClopenSet, "contains_point", lambda self, point: False),
        "anchors escaped their residuals"),
    "gw-diameter": (
        "residual diameter bound violated", GW,
        patched(ClopenSet, "diameter_bound", lambda self: Fraction(2)),
        "residual diameter bound violated"),
    "gw-refused-round": (
        "round {} comparison refused: {}",
        ("gw", "b3:{0}", "b3:{1}", "--backend", "odo3", "--rounds", "2"),
        lambda monkeypatch: monkeypatch.setattr(
            transfers, "source_range", first_range_emptied(transfers.source_range)),
        "round 2 comparison refused: comparison unavailable: mu(A)=8/27 "
        "is not below mu(B)=8/81"),
    "pair-onto-counts": (
        "equal measures must refine to equal counts",
        ("swap", "b2:{00}", "b2:{1}", "--backend", "odo2"),
        patched(Odometer, "measure_equal", lambda self, A, B: True),
        "equal measures must refine to equal counts"),
    "comparison-overlap": (
        "comparison witness is not a bisection: {}",
        ("compare", "b2:{00,010}", "b2:{1}", "--backend", "odo2"),
        patched("fullgroup.backends.pair_cylinders", overlapping_pairing),
        "comparison witness is not a bisection: range cylinders overlap: "
        "(1, 0, 0) vs (1, 0, 0)"),
    "comparison-foreign-piece": (
        "comparison witness is not a bisection: {}",
        ("compare", "b2:{00}", "b2:{1}", "--backend", "odo2"),
        patched("fullgroup.backends.pair_cylinders", depth_changing_pairing),
        "comparison witness is not a bisection: piece Piece(source=(0, 0), target=(1,), "
        "carry=0) does not belong to backend odo2: odometer pieces keep the depth"),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_check_fires(row, capsys, monkeypatch):
    _, argv, patch, message = ROWS[row]
    patch(monkeypatch)
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 4
    assert not out
    assert err == f"internal error: PostconditionError: {message}\n"


def _template(node: ast.expr) -> str | None:
    """A message as the source writes it, each placeholder as {}; None for
    a message passed on in a variable."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def postcondition_messages(path: Path) -> set[str]:
    """The templates of a module's PostconditionError(...) and
    _require(cond, ...) messages."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        args = {"PostconditionError": node.args[:1], "_require": node.args[1:2]}.get(name, [])
        found |= {t for t in map(_template, args) if t is not None}
    return found


def test_every_message_has_a_row():
    messages = set().union(*(postcondition_messages(SRC / name) for name in PINNED_MODULES))
    assert len(messages) >= 19
    rowless = messages - {template for template, *_ in ROWS.values()}
    assert not rowless, f"postconditions with no row: {sorted(rowless)}"
    # each row's message is its template with the placeholders filled
    misfit = [row for row, (template, _, _, message) in ROWS.items()
              if not re.fullmatch(".+".join(map(re.escape, template.split("{}"))), message)]
    assert not misfit, f"rows whose message does not fit the template: {misfit}"
