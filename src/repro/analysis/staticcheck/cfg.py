"""Intraprocedural control-flow graphs over stdlib ``ast``.

The syntactic rules of :mod:`.rules` inspect one call site at a time;
the dataflow rules (DET-003, DUR-002, CONC-001) need to reason about
*paths* — "was the shard published on every route to this cursor
update", "does the wall-clock value survive the branch join".  This
module builds the control-flow graph those analyses run on: basic
blocks of simple statements connected by edges for branches, loops
(with back edges), ``try``/``except``/``finally`` and early exits.

Design notes
------------
* Compound statements are decomposed: ``if``/``while`` conditions live
  on the block as ``Block.test``; ``for``/``with``/``match`` headers are
  kept *in* the statement list as marker nodes so transfer functions can
  model their bindings (loop target, ``as`` names) without seeing the
  nested bodies (those are in their own blocks).
* Exception edges are conservative: every block created inside a
  ``try`` body gets an edge to every handler of that ``try``.  An
  explicit ``raise`` jumps to the innermost enclosing handlers, or to
  the dedicated ``raise_exit`` block when none enclose it (those raises
  are recorded in :attr:`CFG.escaping_raises` — they leave the
  function).
* Approximations (deliberate, documented): a ``return`` inside
  ``try``/``finally`` does not route through the ``finally`` suite, and
  implicit exceptions from arbitrary calls are not modelled.  Both keep
  the graph small and the analyses' false-positive rate near zero; the
  rules that run here are linters, not verifiers.

Nested ``def``/``class`` statements are opaque single statements — a
nested function's body belongs to *its* CFG (:func:`iter_function_defs`
yields every def in a module for exactly that reason).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple, Union

__all__ = ["Block", "CFG", "build_cfg", "iter_function_defs"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: statement types that terminate a block's straight-line flow
_JUMPS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


class Block:
    """One basic block: simple statements, an optional branch test."""

    __slots__ = ("index", "kind", "statements", "test", "successors")

    def __init__(self, index: int, kind: str = "block"):
        self.index = index
        self.kind = kind
        self.statements: List[ast.stmt] = []
        #: branch condition evaluated after ``statements`` (if/while)
        self.test: Optional[ast.expr] = None
        self.successors: List[Block] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Block {self.index} {self.kind} ->{[b.index for b in self.successors]}>"


class CFG:
    """The graph for one function (or module) body."""

    def __init__(self, entry: Block, exit_block: Block, raise_exit: Block,
                 blocks: List[Block], escaping_raises: Set[int]):
        self.entry = entry
        self.exit = exit_block
        self.raise_exit = raise_exit
        self.blocks = blocks
        #: ids of ``ast.Raise`` nodes with no enclosing handler — these
        #: propagate out of the function
        self.escaping_raises = escaping_raises


class _Builder:
    def __init__(self) -> None:
        self.blocks: List[Block] = []
        self.exit = self.new_block("exit")
        self.raise_exit = self.new_block("raise")
        #: (continue_target, break_target) per enclosing loop
        self.loops: List[Tuple[Block, Block]] = []
        #: handler entry blocks per enclosing ``try`` with handlers
        self.handlers: List[List[Block]] = []
        self.escaping_raises: Set[int] = set()

    def new_block(self, kind: str = "block") -> Block:
        block = Block(len(self.blocks), kind)
        self.blocks.append(block)
        return block

    @staticmethod
    def edge(src: Block, dst: Block) -> None:
        if dst not in src.successors:
            src.successors.append(dst)

    # ------------------------------------------------------------------
    def build(self, body: List[ast.stmt]) -> CFG:
        entry = self.new_block("entry")
        end = self.stmts(body, entry)
        if end is not None:
            self.edge(end, self.exit)  # fall-off-the-end return
        return CFG(entry, self.exit, self.raise_exit, self.blocks,
                   self.escaping_raises)

    def stmts(self, body: List[ast.stmt], current: Optional[Block]
              ) -> Optional[Block]:
        """Thread ``body`` starting at ``current``; the block control
        falls out of, or ``None`` when every path jumped away."""
        for stmt in body:
            if current is None:
                # unreachable code after a jump; still build it so its
                # findings (and nested defs) are not silently skipped
                current = self.new_block("unreachable")
            current = self.stmt(stmt, current)
        return current

    def stmt(self, stmt: ast.stmt, current: Block) -> Optional[Block]:
        if isinstance(stmt, ast.If):
            return self.if_stmt(stmt, current)
        if isinstance(stmt, ast.While):
            return self.while_stmt(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self.for_stmt(stmt, current)
        if isinstance(stmt, ast.Try):
            return self.try_stmt(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            current.statements.append(stmt)  # marker: binds `as` names
            return self.stmts(stmt.body, current)
        if isinstance(stmt, ast.Match):
            return self.match_stmt(stmt, current)
        if isinstance(stmt, _JUMPS):
            current.statements.append(stmt)
            if isinstance(stmt, ast.Return):
                self.edge(current, self.exit)
            elif isinstance(stmt, ast.Raise):
                if self.handlers:
                    for handler in self.handlers[-1]:
                        self.edge(current, handler)
                else:
                    self.escaping_raises.add(id(stmt))
                    self.edge(current, self.raise_exit)
            elif isinstance(stmt, ast.Break):
                self.edge(current, self.loops[-1][1] if self.loops
                          else self.exit)
            else:  # Continue
                self.edge(current, self.loops[-1][0] if self.loops
                          else self.exit)
            return None
        # simple statement (incl. nested def/class, which are opaque)
        current.statements.append(stmt)
        return current

    # ------------------------------------------------------------------
    def if_stmt(self, stmt: ast.If, current: Block) -> Optional[Block]:
        current.test = stmt.test
        then_entry = self.new_block("then")
        self.edge(current, then_entry)
        then_end = self.stmts(stmt.body, then_entry)
        if stmt.orelse:
            else_entry = self.new_block("else")
            self.edge(current, else_entry)
            else_end = self.stmts(stmt.orelse, else_entry)
        else:
            else_end = current  # false edge falls through
        if then_end is None and else_end is None:
            return None
        join = self.new_block("join")
        if then_end is not None:
            self.edge(then_end, join)
        if else_end is not None:
            self.edge(else_end, join)
        return join

    def while_stmt(self, stmt: ast.While, current: Block) -> Block:
        header = self.new_block("loop-header")
        self.edge(current, header)
        header.test = stmt.test
        after = self.new_block("loop-after")
        body_entry = self.new_block("loop-body")
        self.edge(header, body_entry)
        self.loops.append((header, after))
        body_end = self.stmts(stmt.body, body_entry)
        self.loops.pop()
        if body_end is not None:
            self.edge(body_end, header)  # back edge
        if stmt.orelse:
            else_entry = self.new_block("loop-else")
            self.edge(header, else_entry)
            else_end = self.stmts(stmt.orelse, else_entry)
            if else_end is not None:
                self.edge(else_end, after)
        else:
            self.edge(header, after)
        return after

    def for_stmt(self, stmt: Union[ast.For, ast.AsyncFor],
                 current: Block) -> Block:
        header = self.new_block("loop-header")
        self.edge(current, header)
        # marker: transfer functions bind stmt.target from stmt.iter
        header.statements.append(stmt)
        after = self.new_block("loop-after")
        body_entry = self.new_block("loop-body")
        self.edge(header, body_entry)
        self.loops.append((header, after))
        body_end = self.stmts(stmt.body, body_entry)
        self.loops.pop()
        if body_end is not None:
            self.edge(body_end, header)
        if stmt.orelse:
            else_entry = self.new_block("loop-else")
            self.edge(header, else_entry)
            else_end = self.stmts(stmt.orelse, else_entry)
            if else_end is not None:
                self.edge(else_end, after)
        else:
            self.edge(header, after)
        return after

    def try_stmt(self, stmt: ast.Try, current: Block) -> Optional[Block]:
        handler_entries = [self.new_block("handler")
                           for _ in stmt.handlers]
        body_entry = self.new_block("try-body")
        self.edge(current, body_entry)
        first_new = len(self.blocks)
        if handler_entries:
            self.handlers.append(handler_entries)
        body_end = self.stmts(stmt.body, body_entry)
        if handler_entries:
            self.handlers.pop()
        # conservative: any block of the try body may raise into any
        # handler (plus the entry block itself)
        body_blocks = [body_entry] + self.blocks[first_new:]
        for block in body_blocks:
            if block.kind in ("handler",):
                continue
            for handler in handler_entries:
                self.edge(block, handler)

        if stmt.orelse and body_end is not None:
            body_end = self.stmts(stmt.orelse, body_end)

        exits: List[Block] = []
        if body_end is not None:
            exits.append(body_end)
        for handler, entry in zip(stmt.handlers, handler_entries):
            # marker: binds `except X as name`
            entry.statements.append(handler)
            handler_end = self.stmts(handler.body, entry)
            if handler_end is not None:
                exits.append(handler_end)

        if stmt.finalbody:
            final_entry = self.new_block("finally")
            for block in exits:
                self.edge(block, final_entry)
            final_end = self.stmts(stmt.finalbody, final_entry)
            if not handler_entries:
                # try/finally without handlers: an in-body exception
                # runs the finally suite then leaves the function
                if final_end is not None:
                    self.edge(final_end, self.raise_exit)
            exits = [final_end] if final_end is not None else []

        if not exits:
            return None
        if len(exits) == 1:
            return exits[0]
        join = self.new_block("join")
        for block in exits:
            self.edge(block, join)
        return join

    def match_stmt(self, stmt: ast.Match, current: Block
                   ) -> Optional[Block]:
        current.statements.append(stmt)  # marker: evaluates subject
        after = self.new_block("join")
        self.edge(current, after)  # no case may match
        any_end = False
        for case in stmt.cases:
            case_entry = self.new_block("case")
            self.edge(current, case_entry)
            case_end = self.stmts(case.body, case_entry)
            if case_end is not None:
                self.edge(case_end, after)
                any_end = True
        return after if (any_end or True) else None


def build_cfg(node: Union[FunctionNode, ast.Module]) -> CFG:
    """Build the CFG of one function's (or module's) body."""
    return _Builder().build(list(node.body))


def iter_function_defs(
    tree: ast.AST,
) -> Iterator[Tuple[str, FunctionNode, Optional[str]]]:
    """Yield ``(local_qualname, node, enclosing_class)`` for every def.

    ``local_qualname`` is dotted within the module (``Class.method``,
    ``outer.inner``); ``enclosing_class`` is the nearest class name, or
    ``None`` for plain functions — what ``self.method()`` resolution
    needs.
    """

    def walk(body, prefix: str, cls: Optional[str]):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{node.name}"
                yield name, node, cls
                yield from walk(node.body, f"{name}.", cls)
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.",
                                node.name)
            elif isinstance(node, (ast.If, ast.Try, ast.With,
                                   ast.AsyncWith, ast.For, ast.AsyncFor,
                                   ast.While)):
                for attr in ("body", "orelse", "finalbody", "handlers"):
                    sub = getattr(node, attr, None) or []
                    for child in sub:
                        if isinstance(child, ast.ExceptHandler):
                            yield from walk(child.body, prefix, cls)
                        elif isinstance(child, ast.stmt):
                            yield from walk([child], prefix, cls)

    yield from walk(getattr(tree, "body", []), "", None)
