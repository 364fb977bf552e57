"""The three workloads.

Each workload prepares once per set-up, then runs whole rounds of the same
operations.  A round times its operations, then checks every output against
`checks` (untimed) and returns a Round.  One client drives the program in a
closed loop: the next operation starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import filecmp
import gc
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import import_module
from pathlib import Path
from statistics import median
from time import perf_counter

import checks

CHILD_TIMEOUT_S = 150


@dataclass
class Round:
    wall: float = 0.0  # timed operations only
    cpu: float = 0.0  # user + system of this process and its children
    first_answer: float = 0.0
    warm: list[float] = field(default_factory=list)  # walls of the warm CLI commands
    attempted: int = 0
    failed: int = 0
    child_peak_mb: float = 0.0
    child_walls: dict[str, list[float]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _self_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Workload:
    name = ""
    inproc_replay = False  # traced runs replay the operations in-process

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(scratch))
        self.env.pop("HCL_TABLE", None)

    def prepare(self) -> float:
        """One set-up: a fresh-process probe, then arith's lazy tables in this
        process.  Returns the probe's first arith use time."""
        first_use = self.probe()
        arith = import_module("hcl.arith")
        arith.factorize(999_983 * 1_000_003)
        arith.sqrt_mod(-54, 55)
        return first_use

    def probe(self) -> float:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            cwd=self.scratch, env=self.env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        info = json.loads(out.stdout.strip().splitlines()[-1])
        src = (self.root / "src").resolve()
        if src not in Path(info["file"]).resolve().parents:
            raise RuntimeError(f"child imported hcl from {info['file']}, not from {src}")
        return info["first_use_s"]

    def run_round(self, mode: str, tracer=None) -> Round:
        """One round.  Starts from a collected heap, so the collector's
        schedule inside the round does not depend on what ran before it."""
        gc.collect()
        return self.round(mode, tracer)

    def round(self, mode: str, tracer) -> Round:
        raise NotImplementedError


# --- cli-1e6 -----------------------------------------------------------------


class CliWorkload(Workload):
    """The paper's workflow as a user types it, one child process per command."""

    name = "cli-1e6"
    inproc_replay = True
    N = 10**6
    ELLS = (5, 7, 11, 13)
    A_MAX = 400

    def __init__(self, root, seed, scratch):
        super().__init__(root, scratch)
        rng = random.Random(seed)
        ell, a, b = rng.choice(checks.SIX_CONGRUENCES)
        k = rng.randrange(2, 6)
        # a subprogression of a known congruence (verifies) and a random one (fails)
        self.extra = [(ell, a * k, b + a * rng.randrange(k))]
        ell = rng.choice(self.ELLS)
        a = rng.randrange(2, 2001)
        self.extra.append((ell, a, rng.randrange(a)))
        self.probes = checks.draw_table_probes(rng, self.N)
        self.reference = None
        self.rounds = 0

    def prepare(self) -> float:
        first_use = super().prepare()
        hurwitz = import_module("hcl.hurwitz")
        values = hurwitz.build_table(4999).values
        text = "D,twelveH\r\n" + "".join(f"{D},{int(v)}\r\n" for D, v in enumerate(values))
        self.truncated = self.scratch / "truncated_cache.csv"
        self.truncated.write_bytes(text.encode()[:20000])  # a 5000-row cache cut off mid-write
        return first_use

    def commands(self, workdir: Path) -> list[tuple[str, list[str]]]:
        """The round's commands.  Three cold verifies, each building and
        persisting its own cache, sit at the start, middle and end so that
        first_answer_s is a median; the warm commands read the first cache."""
        table = str(workdir / "hurwitz_table.csv")

        def cold(path):
            return ("cold", ["verify", "--ell", "5", "--a", "125", "--b", "25", "--format", "json", "--table", path])

        common = ["--table", table]
        cmds = [cold(table)]
        for ell, a, b in checks.SIX_CONGRUENCES + self.extra:
            cmds.append(("verify", ["verify", "--ell", str(ell), "--a", str(a), "--b", str(b), "--format", "json", *common]))
        for ell in self.ELLS:
            cmds.append(("search", ["search", "--ell", str(ell), "--a-max", str(self.A_MAX), "--format", "json", *common]))
        cmds.append(cold(str(workdir / "cold-1.csv")))
        for ell, a, b in checks.SIX_CONGRUENCES:
            cmds.append(("dichotomy", ["dichotomy", "--ell", str(ell), "--a", str(a), "--b", str(b), *common]))
        cmds.append(("square-class", ["square-class", "--ell", "5", "--a", "125", "--b", "25", "--format", "json", *common]))
        cmds.append(("holproj", ["holproj", "--a", "55", "--b", "54", "--beta", "1", "--n", "167", "--projection", *common]))
        cmds.append(("subprogression", ["subprogression", "--a-tilde", "5", "--b-tilde", "4", "--beta", "1"]))
        cmds.append(cold(str(workdir / "cold-2.csv")))
        cmds.append(("truncated", ["verify", "--ell", "17", "--a", "2384", "--b", "2383", "--n-max", "2383",
                                   "--format", "json", "--table", str(workdir / "truncated_cache.csv")]))
        return cmds

    def _spawn(self, argv, cwd: Path, env):
        """Run one child; returns (wall, exit code, stdout, rusage)."""
        with open(cwd / "stdout", "w+b") as out, open(cwd / "stderr", "w+b") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            return wall, proc.returncode, out.read().decode(), usage

    def _inproc(self, argv):
        cli = import_module("hcl.cli")
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return perf_counter() - t0, code, out.getvalue()

    def round(self, mode, tracer):
        rnd = Round()
        workdir = self.scratch / f"round-{self.rounds}"
        self.rounds += 1
        workdir.mkdir()
        shutil.copyfile(self.truncated, workdir / "truncated_cache.csv")
        env = dict(self.env, HCL_TABLE=str(workdir / "hurwitz_table.csv"), TMPDIR=str(workdir))
        outputs = []
        cpu0, child_cpu = _self_cpu(), 0.0
        prev_cwd = os.getcwd()
        os.chdir(workdir)  # an in-process default cache path would land here too
        try:
            for i, (kind, args) in enumerate(self.commands(workdir)):
                if mode == "spawn":
                    wall, code, stdout, usage = self._spawn([sys.executable, "-m", "hcl.cli", *args], workdir, env)
                    child_cpu += usage.ru_utime + usage.ru_stime
                    rnd.child_peak_mb = max(rnd.child_peak_mb, usage.ru_maxrss / 1024)
                else:
                    if tracer is not None:
                        tracer.op = i
                    wall, code, stdout = self._inproc(args)
                rnd.wall += wall
                rnd.child_walls.setdefault(kind, []).append(wall)
                if kind not in ("cold", "truncated"):
                    rnd.warm.append(wall)
                outputs.append((kind, args, code, stdout))
        finally:
            os.chdir(prev_cwd)
        rnd.cpu = _self_cpu() - cpu0 + child_cpu
        rnd.first_answer = median(rnd.child_walls["cold"])
        rnd.attempted = len(outputs)
        self.check(rnd, outputs, workdir)
        shutil.rmtree(workdir)
        return rnd

    def _reference_table(self):
        if self.reference is None:
            values = import_module("hcl.hurwitz").build_table(self.N).values
            problems = checks.check_table(values, self.probes)
            if problems:
                raise RuntimeError(f"reference table fails its checks: {problems[:3]}")
            self.reference = values
        return self.reference

    def check(self, rnd: Round, outputs, workdir: Path) -> None:
        ref = self._reference_table()
        main = workdir / "hurwitz_table.csv"
        try:
            cache = checks.read_csv_table(main)
        except (OSError, ValueError) as exc:
            rnd.problems.append(f"cache {main.name} unreadable as CSV: {exc}")
        else:
            if cache.size <= self.N or not (cache[: self.N + 1] == ref).all():
                rnd.problems.append(f"the persisted cache {main.name} differs from the checked table")
        for path in (workdir / "cold-1.csv", workdir / "cold-2.csv"):
            if not filecmp.cmp(path, main, shallow=False):
                rnd.problems.append(f"cold cache {path.name} differs from {main.name}")
        for kind, args, code, stdout in outputs:
            try:
                rnd.problems += self._check_one(ref, kind, args, code, stdout, rnd)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                rnd.problems.append(f"{' '.join(args[:1])}: unparseable output ({exc}): {stdout[:200]!r}")

    def _check_one(self, ref, kind, args, code, stdout, rnd):
        opt = {args[i][2:]: args[i + 1] for i in range(1, len(args) - 1) if args[i].startswith("--")}
        num = {k: int(v) for k, v in opt.items() if v.lstrip("-").isdigit()}
        if kind == "truncated":
            try:
                payload = json.loads(stdout) if stdout.strip() else None
            except ValueError:
                payload = None
            if not checks.truncated_cache_verdict(code, payload):
                rnd.failed += 1
            return []
        payload = json.loads(stdout)
        if kind in ("cold", "verify"):
            problems = checks.check_verify(ref, num["ell"], num["a"], num["b"], self.N, payload["ok"], payload["counterexample"])
            if code != (0 if payload["ok"] else 1):
                problems.append(f"verify exit code {code} for ok={payload['ok']}")
            return problems
        if code != 0:
            return [f"{kind} {args} exited {code}"]
        if kind == "search":
            ell = num["ell"]
            problems = checks.check_search(ref, ell, num["a-max"], self.N, [(c["a"], c["b"]) for c in payload])
            for c in payload:
                want = "nonholomorphic" if checks.square_roots(-c["b"], c["a"]) else "holomorphic"
                if c["class"] != want or c["ell"] != ell or c["n_max"] != self.N:
                    problems.append(f"search certificate {c} should be {want} at ell={ell}, n_max={self.N}")
            return problems
        if kind == "dichotomy":
            w = payload["witness"]
            witness = None if w is None else (w["p"], w["kronecker"], w["f_p"])
            return checks.check_dichotomy(num["ell"], num["a"], num["b"], self.N, payload["case"], witness, payload["rows_total"])
        if kind == "square-class":
            return checks.check_square_class(ref, num["ell"], num["a"], num["b"], 50, self.N, payload["ok"], payload["failures"])
        if kind == "holproj":
            a, b, beta, n = num["a"], num["b"], num["beta"], num["n"]
            problems = []
            want = checks.nonhol_ref(a, b, beta, n)
            if int(payload["nonholomorphic_coefficient"]) != want:
                problems.append(f"holproj nonholomorphic coefficient {payload['nonholomorphic_coefficient']} != {want}")
            if -sum(payload["q_subsets"].values()) // 2 != want:
                problems.append(f"holproj q-subset total != {want}")
            proj = checks.projection_ref(ref, a, b, beta, n)
            if Fraction(payload["exact_projection"]) != proj:
                problems.append(f"holproj exact projection {payload['exact_projection']} != {proj}")
            return problems
        if kind == "subprogression":
            p = payload
            problems = [] if all(p["conditions"].values()) else [f"subprogression conditions {p['conditions']}"]
            return problems + checks.check_witness(
                num["a-tilde"], num["b-tilde"], num["beta"], p["a"], p["b"], p["p_big"],
                p["a_prime"], p["p"], p["p_prime"], None,
            )
        return [f"unknown command kind {kind}"]


# --- library-1e7 -------------------------------------------------------------


class LibraryWorkload(Workload):
    """build_table, verify, search and classify at 10^7 in this process."""

    name = "library-1e7"
    N = 10**7
    SEARCH = (11, 1331)

    def __init__(self, root, seed, scratch):
        super().__init__(root, scratch)
        self.probes = checks.draw_table_probes(random.Random(seed), self.N)

    def round(self, mode, tracer):
        hurwitz, congruence, dichotomy = (import_module(f"hcl.{m}") for m in ("hurwitz", "congruence", "dichotomy"))
        rnd = Round()
        walls = []
        cpu0 = _self_cpu()

        def timed(fn, *args):
            if tracer is not None:
                tracer.op = len(walls)
            t0 = perf_counter()
            result = fn(*args)
            walls.append(perf_counter() - t0)
            return result

        table = timed(hurwitz.build_table, self.N)
        verdicts = []
        for ell, a, b in checks.SIX_CONGRUENCES:
            verdicts.append(timed(congruence.verify_congruence, ell, a, b, self.N, table))
            if len(verdicts) == 1:
                rnd.first_answer = sum(walls)
        search_ell, a_max = self.SEARCH
        certs = timed(congruence.search, search_ell, a_max, self.N, table)
        reports = []
        for ell, a, b in checks.SIX_CONGRUENCES:
            rep = timed(dichotomy.classify, ell, a, b, self.N, table)
            w = rep.witness
            reports.append((rep.case.value, None if w is None else (w.p, w.kronecker, w.f_p), len(rep.evidence)))
            del rep
        rnd.cpu = _self_cpu() - cpu0
        rnd.wall = sum(walls)
        rnd.attempted = len(walls)

        values = table.values
        rnd.problems += checks.check_table(values, self.probes)
        for (ell, a, b), (ok, ce) in zip(checks.SIX_CONGRUENCES, verdicts):
            rnd.problems += checks.check_verify(values, ell, a, b, self.N, ok, ce)
        found = [(c.progression.a, c.progression.b) for c in certs]
        rnd.problems += checks.check_search(values, search_ell, a_max, self.N, found)
        for (ell, a, b), (case, witness, rows) in zip(checks.SIX_CONGRUENCES, reports):
            rnd.problems += checks.check_dichotomy(ell, a, b, self.N, case, witness, rows)
        return rnd


# --- holproj -----------------------------------------------------------------


class HolprojWorkload(Workload):
    """Exact projection coefficients, the closed forms over the admissible
    tuples a <= 30, n <= 200, and the 50 generic subprogression witnesses."""

    name = "holproj"
    TABLE_N = 60 * 2000  # covers a*n for every projection tuple
    FIRST = (55, 54, 1, 2000)
    SWEEP = (30, 200)
    BRUTE_SAMPLES = 400

    def __init__(self, root, seed, scratch):
        super().__init__(root, scratch)
        rng = random.Random(seed)
        self.projections = [self.FIRST] + checks.draw_projection_tuples(rng, 6)
        self.sweep = list(checks.admissible_tuples(*self.SWEEP))
        self.sample = sorted(rng.sample(range(len(self.sweep)), self.BRUTE_SAMPLES))
        self.probes = checks.draw_table_probes(rng, self.TABLE_N)
        self.defined = {}
        for a, b, beta, _, _ in self.sweep:
            if (a, b, beta) not in self.defined:
                self.defined[(a, b, beta)] = checks.subset_decomposition_defined(a, b, beta)

    def prepare(self) -> float:
        first_use = super().prepare()
        self.table = import_module("hcl.hurwitz").build_table(self.TABLE_N)
        return first_use

    def round(self, mode, tracer):
        holproj = import_module("hcl.holproj")
        rnd = Round()
        walls = []
        cpu0 = _self_cpu()
        clock = perf_counter

        def timed(fn, *args):
            if tracer is not None:
                tracer.op = len(walls)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                walls.append(clock() - t0)

        projections = [timed(holproj.exact_projection_coefficient, *t, self.table) for t in self.projections]
        # every projection starts from nothing (no state survives a call), so
        # each one's latency is a first answer; the median steadies the figure
        rnd.first_answer = median(walls)
        nonhol, thetas, subsets = [], [], []
        for a, b, beta, roots, n in self.sweep:
            nonhol.append(timed(holproj.nonhol_coefficient, a, b, beta, n))
            # proj_theta_product(a, bt, -beta, n) repeats the call at (-bt, beta) by m -> -m
            thetas.append([timed(holproj.proj_theta_product, a, bt, beta, n) for bt in roots])
            try:
                subsets.append(timed(holproj.q_subset_decomposition, a, b, beta, n).total)
            except ValueError:
                subsets.append(None)
        witnesses, seen = [], set()
        for a_tilde, b_tilde, beta in checks.generic_witness_inputs():
            if len(witnesses) == 50:
                break
            w = timed(holproj.subprogression_construct, a_tilde, b_tilde, beta)
            if (w.a, w.b, w.beta) in seen:
                continue
            seen.add((w.a, w.b, w.beta))
            try:
                primes = timed(holproj.find_distinguished_primes, w)
            except ValueError:
                continue
            if primes.degenerate:
                continue
            value = timed(holproj.nonhol_coefficient, w.a, w.b, w.beta, primes.a_prime * primes.p)
            witnesses.append((w, primes, value))
        rnd.cpu = _self_cpu() - cpu0
        rnd.wall = sum(walls)
        rnd.attempted = len(walls)

        values = self.table.values
        rnd.problems += checks.check_table(values, self.probes)
        for (a, b, beta, n), got in zip(self.projections, projections):
            want = checks.projection_ref(values, a, b, beta, n)
            if got != want:
                rnd.problems.append(f"exact_projection_coefficient{(a, b, beta, n)} = {got}, direct sum gives {want}")
        for i in self.sample:
            a, b, beta, roots, n = self.sweep[i]
            if nonhol[i] != checks.nonhol_ref(a, b, beta, n):
                rnd.problems.append(f"nonhol_coefficient{(a, b, beta, n)} = {nonhol[i]}, divisor scan gives {checks.nonhol_ref(a, b, beta, n)}")
            for bt, got in zip(roots, thetas[i]):
                if got != checks.proj_theta_ref(a, bt, beta, n):
                    rnd.problems.append(f"proj_theta_product{(a, bt, beta, n)} = {got}, scan gives {checks.proj_theta_ref(a, bt, beta, n)}")
        for (a, b, beta, _, n), total, value in zip(self.sweep, subsets, nonhol):
            if (total is not None) != self.defined[(a, b, beta)]:
                rnd.problems.append(f"q_subset_decomposition{(a, b, beta, n)} defined={total is not None}, expected {self.defined[(a, b, beta)]}")
            elif total is not None and total != value:
                rnd.problems.append(f"q_subset_decomposition{(a, b, beta, n)}.total = {total} != {value}")
        if len(witnesses) != 50:
            rnd.problems.append(f"{len(witnesses)} generic witnesses, expected 50")
        for w, primes, value in witnesses:
            rnd.problems += checks.check_witness(
                w.a_tilde, w.b_tilde, w.beta, w.a, w.b, w.p_big, primes.a_prime, primes.p, primes.p_prime, value
            )
        return rnd


WORKLOADS = {w.name: w for w in (CliWorkload, LibraryWorkload, HolprojWorkload)}
