"""The four workloads: set-up, the timed operation, and the answer checks.

A workload yields passes, lists of operations. An operation is a timed call
into the program plus a check on its result that runs outside the timed
region. The runner stops after the first whole pass that brings the summed
operation time to the requested seconds, so every run sees the workload's
mix in full.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import sys
import time
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import inputs
import machine
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], bool]


def load_program() -> types.SimpleNamespace:
    """Import the program's modules; the import is part of set-up."""
    import autorbit
    import autorbit.cli

    names = ("arith", "cli", "equivalence", "fastquot", "groups", "kernels", "oracle", "orbits", "snf")
    return types.SimpleNamespace(**{n: getattr(autorbit, n) for n in names})


# --- decide -----------------------------------------------------------------


class Decide:
    """One operation is one are_automorphic(G, x, y) call on prebuilt groups."""

    name = "decide"

    def setup(self, seed: int, prog) -> None:
        self.pairs = inputs.decide_inputs(seed)
        built = {}
        self.ops = []
        eq = prog.equivalence
        for pair in self.pairs:
            G = built.get(pair.moduli)
            if G is None:
                G = built[pair.moduli] = prog.groups.make_group(pair.moduli)
            x, y = G.element(pair.x), G.element(pair.y)
            self.ops.append(
                Op(
                    lambda G=G, x=x, y=y: eq.are_automorphic(G, x, y),
                    lambda answer, want=pair.expected: answer is want,
                )
            )

    def passes(self) -> Iterator[list[Op]]:
        while True:
            yield self.ops

    def final_check(self) -> int:
        """Pairs whose constructed answer the height check contradicts."""
        return sum(ref.automorphic(p.factors, p.x, p.y) != p.expected for p in self.pairs)


# --- orbits -----------------------------------------------------------------


def orbits_match_heights(factors: tuple, summaries) -> bool:
    """Every orbit holds exactly the reduced forms of one height signature,
    with the element count and form count the reference gives for it."""
    exps = ref.primary_exponents(factors)
    classes = {p: ref.p_group_classes(p, e) for p, e in exps.items()}
    memo: dict[tuple, tuple[int, ...]] = {}
    seen = set()
    for o in summaries:
        sigs = set()
        for form in o.representatives:
            sig = []
            for p, bs in form.parts:
                h = memo.get((p, bs))
                if h is None:
                    h = memo[p, bs] = ref.heights(zip(bs, exps[p]))
                sig.append((p, h))
            sigs.add(tuple(sig))
        if len(sigs) != 1:
            return False
        sig = sigs.pop()
        if sig in seen or tuple(p for p, _ in sig) != tuple(exps):
            return False
        seen.add(sig)
        size = math.prod(classes[p][h][1] for p, h in sig)
        forms = math.prod(classes[p][h][0] for p, h in sig)
        order = math.prod(p ** len(h) for p, h in sig)
        if o.size != size or len(o.representatives) != forms or o.quotient_key.order() * order != math.prod(
            p**sum(e) for p, e in exps.items()
        ):
            return False
    return len(seen) == math.prod(len(c) for c in classes.values())


class Orbits:
    """One operation is one enumerate_orbits(G); every pass draws fresh
    groups."""

    name = "orbits"

    def setup(self, seed: int, prog) -> None:
        self.prog = prog
        self.stream = inputs.orbit_passes(seed)
        self.first = self._ops(next(self.stream), deep=True)

    def _ops(self, groups, deep: bool) -> list[Op]:
        en = self.prog.orbits
        ops = []
        for _family, moduli in groups:
            G = self.prog.groups.make_group(moduli)
            factors = tuple(inputs.factors_of(d) for d in moduli)
            ops.append(
                Op(
                    lambda G=G: en.enumerate_orbits(G),
                    lambda out, f=factors, m=moduli: orbits_ok(m, f, out, deep),
                )
            )
        return ops

    def passes(self) -> Iterator[list[Op]]:
        yield self.first
        while True:
            yield self._ops(next(self.stream), deep=False)

    def final_check(self) -> int:
        return 0


def orbits_ok(moduli: tuple, factors: tuple, summaries, deep: bool) -> bool:
    """Sizes sum to |G| and the orbits hold every reduced form once; on the
    first pass, also the full comparison with the height reference."""
    forms = math.prod(math.prod(e + 1 for _, e in fs) for fs in factors)
    if sum(o.size for o in summaries) != math.prod(moduli) or sum(len(o.representatives) for o in summaries) != forms:
        return False
    return orbits_match_heights(factors, summaries) if deep else True


# --- verify -----------------------------------------------------------------


def cross_check(prog, G, pairs, H, z):
    """The three-route check of one small group, plus the snf route against
    fast at rank 16..64. Returns (disagreements, pair answers, key of H/<z>)."""
    bad = 0
    brute = prog.oracle.brute_orbits(G)
    keys = {}
    for x in G.elements():
        k = prog.fastquot.quotient(G, x)
        if prog.oracle.brute_quotient_key(G, x) != k or prog.snf.quotient_by_snf(G, x) != k:
            bad += 1
        keys[x.coords] = k
    sizes = {}
    for orbit in brute:
        found = {keys[e.coords] for e in orbit}
        k = found.pop()
        if found or k in sizes:
            bad += 1
        sizes[k] = len(orbit)
    if sizes != {o.quotient_key: o.size for o in prog.orbits.enumerate_orbits(G)}:
        bad += 1
    answers = [
        (prog.oracle.is_automorphic_image_bruteforce(G, x, y), prog.equivalence.are_automorphic(G, x, y))
        for x, y in pairs
    ]
    key = prog.fastquot.quotient(H, z)
    if prog.snf.quotient_by_snf(H, z) != key:
        bad += 1
    return bad, answers, key


class Verify:
    """One operation cross-checks fast, snf and the oracle on one small group
    that no earlier operation in the process has used."""

    name = "verify"

    def setup(self, seed: int, prog) -> None:
        self.prog = prog
        self.stream = inputs.verify_passes(seed)
        self.first = self._ops(next(self.stream))

    def _ops(self, cases) -> list[Op]:
        prog = self.prog
        ops = []
        for case in cases:
            G = prog.groups.make_group(case.moduli)
            H = prog.groups.make_group(case.snf_moduli)
            pairs = [(G.element(p.x), G.element(p.y)) for p in case.pairs]
            want = [p.expected for p in case.pairs]
            order = math.prod(case.snf_moduli) // ref.element_order(case.snf_moduli, case.snf_element)
            ops.append(
                Op(
                    lambda G=G, pairs=pairs, H=H, z=H.element(case.snf_element): cross_check(prog, G, pairs, H, z),
                    lambda out, want=want, order=order: out[0] == 0
                    and all(a == w and b == w for (a, b), w in zip(out[1], want))
                    and out[2].order() == order,
                )
            )
        return ops

    def passes(self) -> Iterator[list[Op]]:
        yield self.first
        while True:
            yield self._ops(next(self.stream))

    def final_check(self) -> int:
        return 0


# --- cli-cold ---------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict[str, str]) -> tuple[int, str, int]:
    """Run argv to completion from the checkout root; returns the exit code,
    standard output and the child's peak resident set in KiB. Standard error
    is discarded."""
    r, w = os.pipe()
    try:
        pid = os.posix_spawn(
            argv[0],
            argv,
            env,
            file_actions=[
                (os.POSIX_SPAWN_DUP2, w, 1),
                (os.POSIX_SPAWN_CLOSE, r),
                (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0),
            ],
        )
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    os.close(w)
    with open(r, "rb") as f:
        out = f.read()
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), out.decode(), usage.ru_maxrss


def cli_output_ok(op: inputs.CliOp, code: int, out: str) -> bool:
    if code != op.expected_exit:
        return False
    lines = out.strip().splitlines()
    if op.command == "factor":
        n, _, body = lines[-1].partition(" = ")
        product = 1
        for term in body.split(" * "):
            p, _, e = term.partition("^")
            if not ref.is_prime(int(p)):
                return False
            product *= int(p) ** int(e or 1)
        return int(n) == op.moduli[0] and product == op.moduli[0]
    if op.command == "quotient":
        invariant = lines[-1].removeprefix("invariant: ")
        chain = [] if invariant == "C1" else [int(c) for c in re.findall(r"C(\d+)", invariant)]
        divides = all(b % a == 0 for a, b in zip(chain, chain[1:]))
        order = math.prod(op.moduli) // ref.element_order(op.moduli, op.x)
        return divides and math.prod(chain) == order
    return lines[-1] == ("equivalent" if code == 0 else "not equivalent")


class CliCold:
    """One operation is one `python -m autorbit autoeq|quotient|factor`
    process; processes run one at a time. In process, the same argv goes to
    cli.main instead, for the traced run."""

    name = "cli-cold"

    def __init__(self, in_process: bool = False):
        self.in_process = in_process
        self.peak_kb = 0

    def setup(self, seed: int, prog) -> None:
        self.prog = prog
        self.stream = inputs.cli_ops(seed)
        self.env = child_env()
        self.first = self._batch()

    def _batch(self) -> list[inputs.CliOp]:
        return [next(self.stream) for _ in inputs.CLI_PASS]

    def _run_child(self, op: inputs.CliOp):
        code, out, kb = spawn([sys.executable, "-m", "autorbit", *op.argv], self.env)
        self.peak_kb = max(self.peak_kb, kb)
        return code, out

    def _run_in_process(self, op: inputs.CliOp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.prog.cli.main(list(op.argv))
        return code, buf.getvalue()

    def passes(self) -> Iterator[list[Op]]:
        run = self._run_in_process if self.in_process else self._run_child
        batch = self.first
        while True:
            yield [Op(lambda op=op: run(op), lambda out, op=op: cli_output_ok(op, *out)) for op in batch]
            batch = self._batch()

    def final_check(self) -> int:
        return 0


WORKLOADS = {"decide": Decide, "orbits": Orbits, "verify": Verify, "cli-cold": CliCold}


def probe_setup(name: str, seed: int) -> None:
    """Set the workload up once in this fresh process; print the seconds it
    took, import of the program included, and the machine's speed factor
    right after."""
    t0 = time.perf_counter()
    WORKLOADS[name]().setup(seed, load_program())
    print(repr(time.perf_counter() - t0), repr(machine.speed_factor()))
