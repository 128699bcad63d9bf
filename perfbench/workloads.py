"""The benchmark's four workloads.

A workload turns a seed into inputs, lists the operations of each round
and checks every output with `checks`, never with mmk's own checking
code.  Operations call mmk through module attributes looked up at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import checks
import tracer as tracing
from checks import Grid, require


class Op:
    """One operation: `run` calls mmk, `check` raises CheckFailed on a wrong output."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """Inputs from a seed: `next_round()` gives the operations of a round,
    `warm_up` is one more operation for the set-up."""

    tail_percentile = 75

    def __init__(self, seed, tracer, root):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.root = root
        self.ops = []
        self.warm_up = None

    def import_program(self):
        pass

    def build(self):
        raise NotImplementedError

    def next_round(self):
        """The operations of the next round."""
        return self.ops

    def finish(self):
        """Checks that need the outputs of a whole run."""

    def close(self):
        pass

    def building(self):
        """Span around calls into mmk's family and cost constructors."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("measures.build")

    def mmk_family(self, n, k, sizes, marginals):
        """The mmk MarginalFamily of plain marginal data."""
        from mmk.measures import DiscreteMeasure, IndexSet, MarginalFamily, ProductGrid

        with self.building():
            return MarginalFamily(n, k, sizes, {
                IndexSet(alpha): DiscreteMeasure(
                    ProductGrid([sizes[a - 1] for a in alpha], axes=alpha), weights)
                for alpha, weights in marginals.items()
            })


def _interleave(first, second):
    out = []
    for a, b in zip(first, second):
        out += [a, b]
    longer = first if len(first) > len(second) else second
    return out + longer[min(len(first), len(second)):]


def _potentials(dual):
    """mmk DualPotentials or {IndexSet: values} as {alpha tuple: list}."""
    items = dual.potentials.items() if hasattr(dual, "potentials") else dual.items()
    return {tuple(alpha.members): list(values) for alpha, values in items}


class ExactTransport(Workload):
    """Exact verify_gap on random (3,2), (4,2), (4,3) families and XorInstance(3), (4)."""

    name = "exact-transport"
    CLASSES = [(3, 2, (4, 4, 4)), (4, 2, (3, 3, 3, 3)), (4, 3, (3, 3, 3, 3))]
    PER_CLASS = 15
    XOR = (3, 4)

    def import_program(self):
        from mmk import transport, xor_model

        self.transport, self.xor_model = transport, xor_model

    def solve_op(self, label, grid, marginals, cost, fam, cost_grid, expected=None):
        transport = self.transport

        def run():
            return transport.verify_gap(fam, cost_grid)

        def check(report):
            potentials = _potentials(report.potentials)
            require(set(potentials) == set(marginals), "potentials for the wrong index sets")
            require(report.gap == 0 and report.dual_value == report.value, "nonzero gap")
            checks.check_optimal_pair(
                grid, marginals, cost, list(report.pi.weights), potentials, report.value)
            if expected is not None:
                require(report.value == expected, f"value {report.value}, expected {expected}")

        return Op(label, run, check)

    def random_op(self, n, k, sizes):
        from mmk.measures import ProductGrid

        grid = Grid(sizes)
        marginals = checks.projections(grid, checks.random_measure(self.rng, sizes), k)
        cost = [Fraction(self.rng.randint(0, 20)) for _ in grid.cells]
        fam = self.mmk_family(n, k, sizes, marginals)
        with self.building():
            cost_grid = self.transport.CostGrid(ProductGrid(sizes), cost)
        return self.solve_op(f"random({n},{k})", grid, marginals, cost, fam, cost_grid)

    def xor_op(self, n):
        size = 1 << n
        grid = Grid((size,) * 3)
        uniform = [Fraction(1, size * size)] * (size * size)
        marginals = {alpha: list(uniform) for alpha in checks.index_sets(3, 2)}
        cost = [Fraction(i * j * k) for i, j, k in grid.cells]
        with self.building():
            inst = self.xor_model.XorInstance(n)
            fam, cost_grid = inst.family(), inst.cost()
        return self.solve_op(
            f"xor({n})", grid, marginals, cost, fam, cost_grid, checks.xor_value(n))

    def build(self):
        self.xor_ops = [self.xor_op(n) for n in self.XOR]
        self.warm_up = self.xor_op(2)

    def next_round(self):
        """Fresh random families every round, so a run sees many of them."""
        ops = [self.random_op(n, k, sizes)
               for n, k, sizes in self.CLASSES for _ in range(self.PER_CLASS)]
        ops += self.xor_ops
        self.rng.shuffle(ops)
        return ops


class ExtremeMass(Workload):
    """min/max_mass_at_cell over the support of build_nonstrong(8) and (10),
    exact, and min_mass_at_cell on the A_m points of build_unreachable(12), float."""

    name = "extreme-mass"
    tail_percentile = 90
    NONSTRONG = (8, 10)
    UNREACHABLE = 12

    def import_program(self):
        from mmk import case_studies

        self.case_studies = case_studies

    def mass_op(self, N, fam, cell, sense, want):
        fn = "min_mass_at_cell" if sense == "min" else "max_mass_at_cell"
        case_studies = self.case_studies
        seen = self.values[N]

        def run():
            return getattr(case_studies, fn)(fam, cell)

        def check(value):
            require(value == want, f"nonstrong({N}) {sense} at {cell}: {value}, want {want}")
            seen[cell, sense] = value

        return Op(f"nonstrong({N}).{sense}", run, check)

    def unreachable_op(self, fam, cell, m):
        case_studies = self.case_studies
        floor = checks.unreachable_floor(m, self.alpha0)

        def run():
            return case_studies.min_mass_at_cell(fam, cell, arithmetic="float")

        def check(value):
            require(float(value) >= floor - checks.FLOAT_TOL,
                    f"unreachable min at A_{m} {cell}: {float(value)} < {floor}")

        return Op("unreachable.min", run, check)

    def build(self):
        cs = self.case_studies
        self.alpha0 = checks.unreachable_alpha0()
        self.values = {N: {} for N in self.NONSTRONG}
        self.weights = {N: checks.nonstrong_weights(N) for N in self.NONSTRONG}
        ops = []
        for N in self.NONSTRONG:
            with self.building():
                fam, _ = cs.build_nonstrong(N)
            cells = sorted(self.weights[N])
            ops += [self.mass_op(N, fam, cell, sense, self.weights[N][cell])
                    for cell in cells for sense in ("min", "max")]
            if N == self.NONSTRONG[0]:
                self.warm_up = self.mass_op(N, fam, cells[0], "min", self.weights[N][cells[0]])
        with self.building():
            fam, _, alpha0 = cs.build_unreachable(self.UNREACHABLE)
        require(alpha0 == self.alpha0, f"build_unreachable mixes with {alpha0}")
        ops += [self.unreachable_op(fam, cell, m)
                for m in range(1, self.UNREACHABLE) for cell in checks.a_points(m)]
        self.rng.shuffle(ops)
        self.ops = ops

    def finish(self):
        for N in self.NONSTRONG:
            seen = self.values[N]
            weights = self.weights[N]
            for cell in weights:
                require((cell, "min") in seen and (cell, "max") in seen,
                        f"nonstrong({N}): no min/max at {cell}")
                require(seen[cell, "min"] == seen[cell, "max"],
                        f"nonstrong({N}): min != max at {cell}")
            grid = Grid((N,) * 3)
            measure = [seen.get((cell, "min"), Fraction(0)) for cell in grid.cells]
            mu = [weights.get(cell, Fraction(0)) for cell in grid.cells]
            checks.check_uniting(grid, checks.projections(grid, mu, 2), measure)


class InfeasibleFarkas(Workload):
    """kellerer_check, exact and float, on infeasible mod-k and two-point
    families interleaved with feasible random and two-point families."""

    name = "infeasible-farkas"
    MODK = [(4, 3), (5, 2), (5, 3), (6, 2), (6, 3), (7, 2)]
    # (n, k, sizes, families per round)
    RANDOM = [(4, 3, (3,) * 4, 4), (5, 2, (2,) * 5, 4), (5, 3, (3,) * 5, 2),
              (6, 2, (2,) * 6, 4), (7, 2, (2,) * 7, 4)]
    TWO_POINT = 4  # ratios of each kind
    MODES = ("exact", "float")

    def import_program(self):
        from mmk import feasibility

        self.feasibility = feasibility

    def kellerer_ops(self, label, grid, marginals, fam, feasible):
        feasibility = self.feasibility
        ops = []
        for mode in self.MODES:
            tol = 0 if mode == "exact" else checks.FLOAT_TOL

            def run(mode=mode):
                return feasibility.kellerer_check(fam, arithmetic=mode)

            def check(verdict, tol=tol):
                require(verdict.feasible == feasible, f"{label}: wrong verdict")
                if feasible:
                    checks.check_uniting(grid, marginals, list(verdict.witness.weights), tol)
                else:
                    checks.check_farkas(grid, marginals, _potentials(verdict.potentials), tol)

            ops.append(Op(f"{label}.{mode}", run, check))
        return ops

    def modk_ops(self, n, k):
        marginals = checks.modk_marginals(n, k)
        with self.building():
            fam = self.feasibility.make_modk_counterexample(n, k)
        return self.kellerer_ops(f"modk({n},{k})", Grid((k,) * n), marginals, fam, False)

    def two_point_ops(self, ratio):
        with self.building():
            fam = self.feasibility.make_two_point_counterexample(ratio)
        return self.kellerer_ops(
            f"two-point({ratio})", Grid((2, 2, 2)), checks.two_point_marginals(ratio), fam,
            1 <= ratio <= 2)

    def random_ops(self, n, k, sizes):
        grid = Grid(sizes)
        marginals = checks.projections(grid, checks.random_measure(self.rng, sizes), k)
        fam = self.mmk_family(n, k, sizes, marginals)
        return self.kellerer_ops(f"random({n},{k})", grid, marginals, fam, True)

    def build(self):
        self.infeasible = [op for n, k in self.MODK for op in self.modk_ops(n, k)]
        self.two_point = []
        for _ in range(self.TWO_POINT):
            self.infeasible += self.two_point_ops(Fraction(self.rng.randint(21, 60), 10))
            self.two_point += self.two_point_ops(Fraction(self.rng.randint(10, 20), 10))
        self.warm_up = self.modk_ops(4, 2)[0]

    def next_round(self):
        """The fixed infeasible families interleaved with fresh feasible ones."""
        feasible = self.two_point + [
            op for n, k, sizes, count in self.RANDOM for _ in range(count)
            for op in self.random_ops(n, k, sizes)]
        infeasible = list(self.infeasible)
        self.rng.shuffle(infeasible)
        self.rng.shuffle(feasible)
        return _interleave(infeasible, feasible)


class CliOneshot(Workload):
    """Fresh `python -m mmk.cli` processes, one at a time."""

    name = "cli-oneshot"
    TIMEOUT = 60

    def __init__(self, seed, tracer, root):
        super().__init__(seed, tracer, root)
        self.workdir = None
        self.env = dict(os.environ)
        self.env.pop("MMK_ARITHMETIC", None)
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.import_samples = []  # (mmk s, scipy.optimize s) per traced process
        self.child_spans = []
        self.solve_values = {}
        self.dual_values = {}

    def write_problem(self, name, n, k, sizes, marginals, cost=None):
        data = {
            "n": n, "k": k, "axes": list(sizes),
            "marginals": {
                ",".join(map(str, alpha)): {
                    "axes": [sizes[a - 1] for a in alpha],
                    "weights": [str(w) for w in weights],
                }
                for alpha, weights in marginals.items()
            },
        }
        if cost is not None:
            data["cost"] = {"axes": list(sizes), "weights": [str(c) for c in cost]}
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def command(self, argv):
        if self.tracer is not None and self.tracer.installed:
            shim = os.path.join(self.root, "perfbench", "cli_traced.py")
            return [sys.executable, "-X", "importtime", shim] + argv
        return [sys.executable, "-m", "mmk.cli"] + argv

    def cli_op(self, label, argv, exit_code, check_output):
        def run():
            return subprocess.run(
                self.command(argv), cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=self.TIMEOUT)

        def check(proc):
            if self.tracer is not None and self.tracer.installed:
                self.take_trace(proc.stderr)
            require(proc.returncode == exit_code,
                    f"{label}: exit {proc.returncode}, want {exit_code}: {proc.stderr[-500:]}")
            check_output(json.loads(proc.stdout))

        return Op(label, run, check)

    def take_trace(self, stderr):
        self.import_samples.append(tracing.import_seconds(stderr))
        for line in stderr.splitlines():
            if line.startswith("PERFBENCH_TRACE "):
                data = json.loads(line[len("PERFBENCH_TRACE "):])
                self.tracer.merge(data["stats"], data["counts"])
                for layer, functions in data["missing"].items():
                    self.tracer.missing.setdefault(layer, set()).update(functions)
                self.child_spans.append(data["spans"])
                return
        raise checks.CheckFailed("traced CLI process printed no trace")

    def build(self):
        # The CLI processes inherit this pin, so they run on the processor
        # where the reference loop is timed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.workdir = os.path.join(self.root, ".perfbench", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        small = {}
        # Every seed's 4x4x4 LP keeps over 64 nonzeros after support
        # reduction, so `solve` on it always imports scipy.optimize; on
        # 3x3x3 that flipped with the seed.
        for name, sizes in (("small222", (2, 2, 2)), ("small444", (4, 4, 4))):
            grid = Grid(sizes)
            marginals = checks.projections(grid, checks.random_measure(self.rng, sizes), 2)
            cost = [Fraction(self.rng.randint(0, 20)) for _ in grid.cells]
            path = self.write_problem(name, 3, 2, sizes, marginals, cost)
            small[name] = (grid, marginals, cost, path)
        modk = {}
        for n in (3, 4):
            marginals = checks.modk_marginals(n, 2)
            modk[n] = (Grid((2,) * n), marginals,
                       self.write_problem(f"modk{n}2", n, 2, (2,) * n, marginals))

        def feasible(grid, marginals):
            def check(out):
                require(out["consistent"] and out["feasible"], "check: not feasible")
                witness = [Fraction(w) for w in out["witness"]["weights"]]
                checks.check_uniting(grid, marginals, witness)
            return check

        def keyed(values):
            """{"1,2": ["p/q", ...]} as {(1, 2): [Fraction, ...]}."""
            return {tuple(map(int, key.split(","))): [Fraction(v) for v in vs]
                    for key, vs in values.items()}

        def infeasible(grid, marginals):
            def check(out):
                require(out["consistent"] and not out["feasible"], "check: not infeasible")
                potentials = keyed(out["certificate"])
                require(set(potentials) == set(marginals), "certificate for the wrong index sets")
                checks.check_farkas(grid, marginals, potentials)
            return check

        def solved(name):
            grid, marginals, cost, _ = small[name]

            def check(out):
                require(Fraction(out["gap"]) == 0, "solve: nonzero gap")
                pi = [Fraction(w) for w in out["pi"]["weights"]]
                checks.check_optimal_pair(
                    grid, marginals, cost, pi, keyed(out["potentials"]), Fraction(out["value"]))
                self.solve_values[name] = Fraction(out["value"])
            return check

        def dual(name):
            grid, marginals, cost, _ = small[name]

            def check(out):
                potentials = keyed(out["potentials"])
                checks.check_dual_feasible(grid, potentials, cost)
                value = Fraction(out["value"])
                require(checks.integral(marginals, potentials) == value, "dual: wrong value")
                self.dual_values[name] = value
            return check

        def signed(grid, marginals):
            def check(out):
                weights = [Fraction(w) for w in out["signed_uniting"]["weights"]]
                checks.check_uniting(grid, marginals, weights, signed=True)
            return check

        def nonstrong(out):
            F = [Fraction(v) for v in out["F_diagonal"]]
            require(out["N"] == 10 and len(F) == 10, "nonstrong: wrong N")
            require(all(b - a == 3 for a, b in zip(F[:-2], F[1:-1])),
                    "nonstrong: F does not step by 3 along the diagonal")
            # The unique uniting measure puts half its mass on the B points.
            require(Fraction(out["dual_value"]) == Fraction(1, 2), "nonstrong: dual value")

        def nonuniform(out):
            require(out["unique"] is True, "nonuniform222: not unique")
            grid = Grid((2, 2, 2))
            weights = [Fraction(out["witness"][",".join(map(str, c))]) for c in grid.cells]
            checks.check_uniting(grid, checks.nonuniform222_marginals(), weights)

        g222, m222, _, p222 = small["small222"]
        g444, m444, _, p444 = small["small444"]
        ops = [
            self.cli_op("check.feasible222", ["check", p222], 0, feasible(g222, m222)),
            self.cli_op("check.feasible444", ["check", p444], 0, feasible(g444, m444)),
            self.cli_op("check.modk32", ["check", modk[3][2]], 2, infeasible(*modk[3][:2])),
            self.cli_op("check.modk42", ["check", modk[4][2]], 2, infeasible(*modk[4][:2])),
            self.cli_op("solve222", ["solve", p222], 0, solved("small222")),
            self.cli_op("solve444", ["solve", p444], 0, solved("small444")),
            self.cli_op("dual", ["dual", p222], 0, dual("small222")),
            self.cli_op("signed", ["signed", p222], 0, signed(g222, m222)),
            self.cli_op("case.nonstrong", ["case", "nonstrong", "--N", "10"], 0, nonstrong),
            self.cli_op("case.nonuniform222", ["case", "nonuniform222"], 0, nonuniform),
        ]
        self.warm_up = ops[0]
        self.rng.shuffle(ops)
        self.ops = ops

    def finish(self):
        for name, value in self.dual_values.items():
            require(self.solve_values.get(name) == value,
                    f"dual value {value} differs from the certified optimum")

    def close(self):
        if self.workdir is not None:
            for entry in os.listdir(self.workdir):
                os.remove(os.path.join(self.workdir, entry))
            os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (ExactTransport, ExtremeMass, InfeasibleFarkas, CliOneshot)}
