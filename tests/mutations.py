"""The mutation walk over instance documents.

Every JSON node up to a depth is replaced, in turn, by each of a fixed set
of bad values, and the document is run through ``smplab eval --file`` with
each ``--what`` of ``WHATS`` that ``walks`` it: ``adap`` walks the tree,
``best-na`` steps the constraint through its feasible sequences, ``greedy``
steps the family of a weighted-rank document along the tree. A run passes when it exits 2
with a message that names the mutated node, its parent, or the innermost
kind object, tree node or section that holds it (or that starts with the
path of any object holding it, whose constructor refused it), or when it
exits 0 or 1 and prints only finite values.

Paths are written as the instance codec writes them: a field of a kind
object, tree node, section or ``{"scalar": ...}`` metadata value joins with
".", any other object key and every array index with "[...]".
"""

import contextlib
import io
import json
import math
import re

from smplab.cli import main

REPLACEMENTS = ([], {}, "x", 1, None, [[]], True, "nan", "-1", "1e400")
DEPTH = 6
WHATS = ("adap", "best-na", "greedy")


def walks(what, doc):
    """Whether ``what`` applies to ``doc``: ``greedy`` needs a weighted-rank valuation."""
    return what != "greedy" or doc["valuation"].get("kind") == "weighted_rank"


def nodes(node, depth=DEPTH, keys=(), path="", holders=()):
    """(key path, path, parent's path, paths of the objects that hold it,
    outermost first) for every node below ``node``, ``depth`` levels deep."""
    if depth == 0 or not isinstance(node, (dict, list)):
        return
    record = isinstance(node, dict) and bool({"kind", "element"} & set(node))  # kind or tree node
    fields = record or isinstance(node, dict) and (
        keys in ((), ("universe",)) or set(node) == {"scalar"}
    )
    if record or len(keys) == 1:  # sections hold what is in them too
        holders += (path,)
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        child_path = (f"{path}.{key}" if path else key) if fields else f"{path}[{key!r}]"
        yield keys + (key,), child_path, path, holders
        yield from nodes(child, depth - 1, keys + (key,), child_path, holders)


def mutants(doc, depth=DEPTH):
    """(document text, path, parent's path, holder paths) for every node of
    ``doc`` up to ``depth`` deep and every replacement; ``doc`` is restored."""
    for keys, path, parent, holders in list(nodes(doc, depth)):
        owner = doc
        for key in keys[:-1]:
            owner = owner[key]
        original = owner[keys[-1]]
        for value in REPLACEMENTS:
            owner[keys[-1]] = value
            yield json.dumps(doc), path, parent, holders
        owner[keys[-1]] = original


def outcome(text, file, what, path, parent, holders):
    """How ``smplab eval --file --what <what>`` treats the document: "exit 2,
    named", "exit 0", "exit 1", or a line that starts with "FAIL" and says why."""
    file.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(["eval", "--file", str(file), "--what", what])
    except Exception as exc:  # a traceback is the failure this walk looks for
        return f"FAIL traceback at {path}: {type(exc).__name__}: {exc}"
    message = err.getvalue().removeprefix("error: ").strip()
    if status == 2:
        named = [p for p in (path, parent, holders[-1] if holders else "") if p]
        if any(p in message for p in named) or any(
            message.startswith(f"{h}: ") for h in holders
        ):
            return "exit 2, named"
        return f"FAIL unnamed at {path}: {message}"
    values = re.findall(r"value=(\S+)", out.getvalue())
    if status in (0, 1) and values and all(math.isfinite(float(v)) for v in values):
        return f"exit {status}"
    return f"FAIL status {status} at {path}: {out.getvalue().strip()} {message}"
