"""Command-line interface: exit codes, JSON output, and image emission."""

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmk
from mmk import cli
from mmk import feasibility as fb
from mmk import lp_core
from mmk.measures import (
    DiscreteMeasure,
    MarginalFamily,
    ProductGrid,
    SignedDiscreteMeasure,
    all_index_sets,
    cell_sums,
    measure_to_json,
    project,
    uniform,
)


def write_problem(path, fam, cost_values=None, refs=None):
    data = {
        "n": fam.n,
        "k": fam.k,
        "axes": list(fam.sizes),
        "marginals": {
            alpha.key(): measure_to_json(fam[alpha])
            for alpha in fam.index_sets()
        },
    }
    if cost_values is not None:
        data["cost"] = {
            "axes": list(fam.sizes),
            "weights": [str(Fraction(v)) for v in cost_values],
        }
    if refs is not None:
        data["refs"] = [measure_to_json(m) for m in refs]
    path.write_text(json.dumps(data))
    return str(path)


def projected_family(seed=0):
    import random

    from mmk.measures import MarginalFamily

    rng = random.Random(seed)
    grid = ProductGrid([2, 2, 2])
    raw = [Fraction(rng.randint(1, 9)) for _ in range(8)]
    total = sum(raw)
    mu = DiscreteMeasure(grid, [w / total for w in raw])
    return MarginalFamily(
        3, 2, [2, 2, 2], {a: project(mu, a) for a in all_index_sets(3, 2)}
    )


class TestCheck:
    def test_feasible_exit_zero(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", projected_family())
        assert cli.main(["check", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] is True
        assert "witness" in out

    def test_infeasible_exit_two_with_certificate(self, tmp_path, capsys):
        fam = fb.make_modk_counterexample(3, 2)
        path = write_problem(tmp_path / "p.json", fam)
        assert cli.main(["check", path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["consistent"] is True
        assert out["feasible"] is False
        assert set(out["certificate"]) == {"1,2", "1,3", "2,3"}

    def test_float_infeasible_exit_two_with_certificate(self, tmp_path, capsys):
        fam = fb.make_modk_counterexample(4, 2)
        path = write_problem(tmp_path / "p.json", fam)
        assert cli.main(["--arithmetic", "float", "check", path]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] is False
        potentials = {
            alpha: [float(Fraction(v)) for v in out["certificate"][alpha.key()]]
            for alpha in fam.index_sets()
        }
        scale = max(abs(v) for values in potentials.values() for v in values)
        assert min(cell_sums(fam.full_grid(), potentials)) >= -1e-9 * scale
        total = sum(
            f * float(w)
            for alpha in fam.index_sets()
            for f, w in zip(potentials[alpha], fam[alpha].weights)
        )
        assert total < -1e-9 * scale

    def test_malformed_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["check", str(bad)]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_missing_keys_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3}))
        assert cli.main(["check", str(bad)]) == 1

    @pytest.mark.parametrize("where", ["marginal", "cost"])
    def test_string_weights_exit_one(self, tmp_path, capsys, where):
        # Read one character per weight, "1" and "123" were a marginal of
        # mass 1 and the cost 1, 2, 3, and `solve` printed the value 2.
        problem = {
            "n": 2, "k": 1, "axes": [1, 3],
            "marginals": {"1": {"axes": [1], "weights": "1" if where == "marginal" else [1]},
                          "2": {"axes": [3], "weights": ["1/3", "1/3", "1/3"]}},
            "cost": {"axes": [1, 3], "weights": "123"},
        }
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(problem))
        assert cli.main(["solve", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "must be a JSON array" in err


class TestSolveAndDual:
    def test_solve_round_trip(self, tmp_path, capsys):
        fam = projected_family(1)
        cost = [Fraction(i % 5) for i in range(8)]
        path = write_problem(tmp_path / "p.json", fam, cost_values=cost)
        assert cli.main(["solve", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Fraction(out["gap"]) == 0
        value = Fraction(out["value"])
        pi_weights = [Fraction(w) for w in out["pi"]["weights"]]
        assert sum(w * c for w, c in zip(pi_weights, cost)) == value

    def test_solve_requires_cost(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", projected_family(2))
        assert cli.main(["solve", path]) == 1

    def test_solve_infeasible(self, tmp_path, capsys):
        fam = fb.make_modk_counterexample(3, 2)
        path = write_problem(
            tmp_path / "p.json", fam, cost_values=[0] * fam.full_grid().ncells
        )
        assert cli.main(["solve", path]) == 2

    def test_dual_output(self, tmp_path, capsys):
        fam = projected_family(3)
        cost = [Fraction(i % 3) for i in range(8)]
        path = write_problem(tmp_path / "p.json", fam, cost_values=cost)
        assert cli.main(["dual", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["potentials"]) == {"1,2", "1,3", "2,3"}

    def test_float_mode_flag(self, tmp_path, capsys):
        fam = projected_family(4)
        cost = [Fraction(i) for i in range(8)]
        path = write_problem(tmp_path / "p.json", fam, cost_values=cost)
        assert cli.main(["--arithmetic", "float", "solve", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(float(Fraction(out["gap"]))) < 1e-7


    def test_json_decimals_read_as_their_text(self, tmp_path, capsys):
        # mu_12 = (0.1, 0.2, 0.3, 0.4) with x3 uniform: the decimals sum to
        # 1 exactly, their doubles do not.  A file of "p/q" strings and one
        # of the same values as JSON decimals give the same reports.
        grid = ProductGrid([2, 2, 2])
        mu = DiscreteMeasure(grid, [Fraction(w, 20) for w in (1, 1, 2, 2, 3, 3, 4, 4)])
        fam = MarginalFamily(3, 2, [2, 2, 2], {a: project(mu, a) for a in all_index_sets(3, 2)})
        cost = [Fraction(c) for c in ("0.1", "2.5", "0", "0.3", "3", "0.75", "1.25", "0.5")]
        strings = write_problem(tmp_path / "strings.json", fam, cost_values=cost)
        data = json.loads(open(strings).read())
        for obj in [*data["marginals"].values(), data["cost"]]:
            obj["weights"] = [float(Fraction(w)) for w in obj["weights"]]
        decimals = tmp_path / "decimals.json"
        decimals.write_text(json.dumps(data))
        assert "0.15" in decimals.read_text()
        for command, status in (("check", 0), ("solve", 0)):
            outputs = []
            for path in (strings, str(decimals)):
                assert cli.main([command, path]) == status
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1]

    def test_size_cap_exit_one_with_message(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(lp_core, "EXACT_NONZERO_CAP", 10)
        fam = projected_family(5)
        path = write_problem(tmp_path / "p.json", fam, cost_values=[1] * 8)
        assert cli.main(["solve", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "exact-mode cap" in captured.err

    def test_float_size_cap_before_the_support(self, tmp_path, capsys, monkeypatch):
        # A (3,1) family on 300^3 has 81,000,000 nonzeros; nothing of that
        # size may be built before float mode refuses it.
        sizes = [300] * 3
        fam = MarginalFamily(
            3, 1, sizes, {a: uniform([300], axes=a.members) for a in all_index_sets(3, 1)}
        )
        path = write_problem(tmp_path / "p.json", fam)

        def refuse(*args):
            raise AssertionError("grid-sized work before the cap")

        monkeypatch.setattr(fb, "supported_columns", refuse)
        monkeypatch.setattr(fb, "marginal_constraint_rows", refuse)
        assert cli.main(["--arithmetic", "float", "check", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "81000000 nonzeros exceeds the cap 2000000" in captured.err


def run_mmk(*argv, address_space=None):
    """A fresh `python -m mmk.cli` process, given 20 s to finish.

    address_space (bytes) caps its memory as `ulimit -v` does, or at the
    hard limit this process already has if that is lower.
    """
    src = os.path.dirname(os.path.dirname(mmk.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def limit():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        cap = address_space if hard == resource.RLIM_INFINITY else min(address_space, hard)
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    return subprocess.run(
        [sys.executable, "-m", "mmk.cli", *argv],
        env=env, capture_output=True, text=True, timeout=20,
        preexec_fn=limit if address_space else None,
    )


class TestHostileInput:
    """Problem files that must fail fast: exit 1 and one line of mmk's own."""

    @staticmethod
    def edited_problem(tmp_path, edit):
        path = write_problem(tmp_path / "p.json", projected_family(), cost_values=[1] * 8)
        with open(path) as fh:
            data = json.load(fh)
        edit(data)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    @staticmethod
    def refused(proc, words):
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1
        assert words in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "text, words",
        [("[" * 100_000 + "]" * 100_000, "recursion"), ('{"n": ' + "7" * 5000 + "}", "digits")],
        ids=["nested-brackets", "5000-digit-integer"],
    )
    def test_json_the_parser_refuses(self, tmp_path, text, words):
        path = tmp_path / "p.json"
        path.write_text(text)
        self.refused(run_mmk("check", str(path)), words)

    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_fields_exit_cleanly(self, tmp_path_factory, data):
        # A valid problem on 2x2x2, then one or two fields dropped, replaced
        # by a random JSON value or rebuilt from random parts.  Every
        # integer drawn is at most 3, so no grid is large.
        path = tmp_path_factory.mktemp("fuzz") / "p.json"
        write_problem(path, projected_family(), cost_values=[1] * 8)
        problem = json.loads(path.read_text())
        parts = {
            "n": st.integers(-1, 4),
            "k": st.integers(-1, 4),
            "axes": st.lists(st.integers(-1, 3), max_size=4),
            "marginals": st.dictionaries(
                st.sampled_from(sorted(problem["marginals"]) + ["1", "1,2,3", "x"]),
                self.JSON_VALUES | st.fixed_dictionaries(
                    {"axes": st.lists(st.integers(-1, 3), max_size=3),
                     "weights": st.lists(self.JSON_VALUES, max_size=9)}),
            ),
            "cost": st.fixed_dictionaries(
                {"axes": self.JSON_VALUES, "weights": st.lists(self.JSON_VALUES, max_size=9)}),
        }
        for field in data.draw(st.sets(st.sampled_from(sorted(parts)), min_size=1, max_size=2)):
            how = data.draw(st.sampled_from(["drop", "random", "rebuilt"]))
            if how == "drop":
                del problem[field]
            else:
                problem[field] = data.draw(self.JSON_VALUES if how == "random" else parts[field])
        path.write_text(json.dumps(problem))
        assert cli.main(["check", str(path)]) in (0, 1, 2)

    def test_marginals_as_a_list(self, tmp_path):
        path = self.edited_problem(tmp_path, lambda d: d.update(marginals=[1, 2]))
        self.refused(run_mmk("check", path), "marginals must be an object")

    @pytest.mark.parametrize("where", ["weight", "cost"])
    def test_bool_weight(self, tmp_path, where):
        def edit(data):
            if where == "weight":
                data["marginals"]["1,2"]["weights"][0] = True
            else:
                data["cost"]["weights"][0] = True

        path = self.edited_problem(tmp_path, edit)
        self.refused(run_mmk("solve", path), "cannot interpret True as a rational")

    @pytest.mark.parametrize("where", ["weight", "cost"])
    def test_huge_decimal_exponent(self, tmp_path, where):
        def edit(data):
            if where == "weight":
                data["marginals"]["1,2"]["weights"][0] = "1e999999999"
            else:
                data["cost"]["weights"][0] = "1e999999999"

        path = self.edited_problem(tmp_path, edit)
        start = time.monotonic()
        proc = run_mmk("solve", path)
        assert time.monotonic() - start < 10
        self.refused(proc, "decimal exponent above 4300")

    @pytest.mark.parametrize(
        "argv",
        [
            ["signed"],
            ["case", "nonstrong", "--N", "300"],
            ["case", "discontinuous", "--N", "300"],
            ["case", "uniformband", "--N", "5000"],
        ],
        ids=["signed-200-cubed", "nonstrong", "discontinuous", "uniformband"],
    )
    def test_grid_over_the_float_cap(self, tmp_path, argv):
        # Each grid's cells times marginals exceed the float cap, and the
        # command refuses it before it builds anything grid-sized.
        if argv == ["signed"]:
            uniform_200 = {"axes": [200], "weights": ["1/200"] * 200}
            marginals = {key: uniform_200 for key in ("1", "2", "3")}
            path = tmp_path / "p.json"
            problem = {"n": 3, "k": 1, "axes": [200] * 3, "marginals": marginals}
            path.write_text(json.dumps(problem))
            argv = ["signed", str(path)]
        start = time.monotonic()
        proc = run_mmk(*argv)
        assert time.monotonic() - start < 10
        self.refused(proc, "exceeds the cap 2000000")

    # Grids far too large to hold, and a marginal keyed outside I_nk.
    HOSTILE = {
        "axes-1e12-one-cell-marginals": {
            "n": 3, "k": 1, "axes": [10**12] * 3,
            "marginals": {a: {"axes": [1], "weights": ["1"]} for a in "123"},
        },
        "4-1-on-100^4": {
            "n": 4, "k": 1, "axes": [100] * 4,
            "marginals": {a: {"axes": [100], "weights": ["1/100"] * 100} for a in "1234"},
        },
        "8-1-on-10^8": {
            "n": 8, "k": 1, "axes": [10] * 8,
            "marginals": {a: {"axes": [10], "weights": ["1/10"] * 10} for a in "12345678"},
        },
        "key-outside-I_nk": {
            "n": 3, "k": 2, "axes": [2] * 3,
            "marginals": {
                key: {"axes": [2, 2], "weights": ["1/4"] * 4}
                for key in ("1,2", "1,3", "2,3", "1,4")
            },
        },
    }

    @pytest.mark.parametrize("command", ["check", "solve", "signed"])
    @pytest.mark.parametrize("probe", sorted(HOSTILE))
    def test_hostile_probe_refused_at_once(self, tmp_path, probe, command):
        # Under the 4 GB address-space limit of CI's test steps.
        path = tmp_path / "p.json"
        path.write_text(json.dumps(self.HOSTILE[probe]))
        start = time.monotonic()
        proc = run_mmk(command, str(path), address_space=4_000_000 * 1024)
        assert time.monotonic() - start < 10
        assert proc.returncode == 1 and proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1 and "Traceback" not in proc.stderr

    def test_index_sets_too_many_to_list(self, tmp_path):
        # I_nk has C(40, 20), about 1.4e11, members: three marginals are
        # refused by their count before any index set is listed.
        path = self.edited_problem(tmp_path, lambda d: d.update(n=40, k=20, axes=[2] * 40))
        start = time.monotonic()
        proc = run_mmk("check", path)
        assert time.monotonic() - start < 10
        self.refused(proc, "must enumerate I_nk")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(n=3.5),
            lambda d: d.update(k=2.0),
            lambda d: d.update(axes=[2.7, 2, 2]),
            lambda d: d.update(axes=[2, True, 2]),
            lambda d: d["marginals"]["1,2"].update(axes="22"),
            lambda d: d["cost"].update(axes=[2.0, 2, 2]),
        ],
        ids=["n", "k", "axes", "bool-axis", "marginal-axes-string", "cost-axes"],
    )
    def test_non_integer_size(self, tmp_path, edit):
        path = self.edited_problem(tmp_path, edit)
        self.refused(run_mmk("check", path), "expected an integer")

    @pytest.mark.parametrize(
        "argv, words",
        [
            (["xor", "xor"], "operand is missing"),
            (["xor", "xor", "abc", "1/2"], "cannot interpret 'abc'"),
            (["xor", "xor", "1e-999999999", "0"], "decimal exponent above 4300"),
            (["xor", "slice", "--depth", "-1"], "slice depth must be in 0..10"),
            (["xor", "slice", "--depth", "40"], "slice depth must be in 0..10"),
            (["figure", "sierpinski", "--depth", "40"], "slice depth must be in 0..10"),
        ],
        ids=["missing-operand", "not-a-number", "huge-exponent", "negative-depth",
             "depth-40", "figure-depth-40"],
    )
    def test_xor_input_refused_at_once(self, argv, words):
        # A slice of depth 40 would be a 2^40 x 2^40 raster.
        start = time.monotonic()
        proc = run_mmk(*argv, address_space=2_000_000 * 1024)
        assert time.monotonic() - start < 10
        self.refused(proc, words)


def test_import_loads_neither_numpy_nor_scipy():
    """One-shot runs on small LPs must not pay for numpy, scipy or dataclasses."""
    src = os.path.dirname(os.path.dirname(mmk.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, mmk.cli; "
        "print(sorted(m for m in ('numpy', 'scipy', 'dataclasses') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    # Colour refinement is plain Python: XorInstance(3)'s costed LP gets
    # its 36 x 120 quotient without numpy.
    code = (
        "import sys; from mmk import lp_core; from mmk.xor_model import XorInstance; "
        "from mmk.feasibility import marginal_constraint_rows; from mmk.measures import scaled; "
        "inst = XorInstance(3); c = inst.cost().values; "
        "q = lp_core._quotient(lp_core.LPProblem(*marginal_constraint_rows(inst.family())), "
        "c, scaled(c)); print(q.lp.nrows, q.lp.ncols, 'numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "36 120 False"
    # nonstrong's support LP, 300 x 64 and costed, has a 20 x 28 quotient
    # of 46 nonzeros, which the exact tableau solves: neither numpy nor
    # the HiGHS binding is loaded.  lp_core loads the binding without
    # registering it, so its loader's cache is read too.
    code = (
        "import contextlib, io, sys; from mmk import cli, lp_core\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['case', 'nonstrong', '--N', '10'])\n"
        "print(status, lp_core._core.cache_info().currsize, sorted(m for m in "
        "('numpy', 'scipy.optimize._highspy._core') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0 0 []"


class TestSignedAndBounded:
    def test_signed_uniting(self, tmp_path, capsys):
        fam = projected_family(5)
        path = write_problem(tmp_path / "p.json", fam)
        assert cli.main(["signed", path]) == 0
        out = json.loads(capsys.readouterr().out)
        mu = DiscreteMeasure(
            ProductGrid(out["signed_uniting"]["axes"]),
            [Fraction(w) for w in out["signed_uniting"]["weights"]],
        )
        for alpha in fam.index_sets():
            assert project(mu, alpha) == fam[alpha]

    def test_signed_self_check_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        # A product that doubles every weight breaks the projections; the
        # self-check reports it in one line instead of a traceback.
        fam = projected_family(5)
        path = write_problem(tmp_path / "p.json", fam)
        real = fb.product

        def doubled(factors):
            mu = real(factors)
            return SignedDiscreteMeasure(mu.grid, [2 * w for w in mu.weights])

        monkeypatch.setattr(fb, "product", doubled)
        assert cli.main(["signed", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
        assert "projection mismatch" in captured.err

    def test_bounded_dual_on_product_instance(self, tmp_path, capsys, monkeypatch):
        import random

        from mmk.measures import MarginalFamily, product, uniform

        rng = random.Random(6)
        mus = []
        for i in (1, 2, 3):
            raw = [Fraction(rng.randint(1, 4)) for _ in range(2)]
            t = sum(raw)
            mus.append(
                DiscreteMeasure(ProductGrid([2], axes=[i]), [w / t for w in raw])
            )
        full = product(mus)
        fam = MarginalFamily(
            3,
            2,
            [2, 2, 2],
            {a: project(full, a) for a in all_index_sets(3, 2)},
        )
        cost = [Fraction(rng.randint(0, 5)) for _ in range(8)]
        path = write_problem(tmp_path / "p.json", fam, cost_values=cost)
        solves, solve = [], lp_core.solve
        monkeypatch.setattr(lp_core, "solve", lambda *args: solves.append(1) or solve(*args))
        assert cli.main(["bounded-dual", path]) == 0
        assert len(solves) == 1  # the LP solve_dual solved, and no second one
        out = json.loads(capsys.readouterr().out)
        norm = max(cost)
        for values in out["potentials"].values():
            for v in values:
                assert (
                    Fraction(-80, 3) * norm
                    <= Fraction(v)
                    <= Fraction(40, 3) * norm
                )


class TestXor:
    def test_ops(self, capsys):
        assert cli.main(["xor", "xor", "5/8", "3/8"]) == 0
        assert capsys.readouterr().out.strip() == "3/4"
        assert cli.main(["xor", "integral", "1", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1/2"
        assert cli.main(["xor", "f", "1", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1/4"

    def test_slice_writes_p2(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "slice.pgm"
        assert (
            cli.main(
                ["xor", "slice", "--z", "0", "--depth", "3", "--out", str(out)]
            )
            == 0
        )
        text = out.read_text()
        assert text.startswith("P2\n8 8\n1\n")
        capsys.readouterr()

    def test_non_dyadic_rejected(self, capsys):
        assert cli.main(["xor", "f", "1/3", "1/2"]) == 1
        assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["xor", "slice", "--z", "0", "--depth", "2", "--out", "{missing}/s.pgm"],
        ["figure", "sierpinski", "--depth", "2", "--out", "{missing}/s.pgm"],
        ["case", "uniformband", "--N", "3", "--out", "{missing}"],
        ["figure", "uniformband", "--N", "3", "--out", "{missing}"],
    ],
)
def test_unwritable_output_exit_one(tmp_path, capsys, argv):
    missing = tmp_path / "no" / "such" / "dir"
    assert cli.main([a.format(missing=missing) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "cannot write" in err and str(missing) in err


class TestCases:
    def test_unknown_case_exit_one(self, capsys):
        assert cli.main(["case", "no-such-case"]) == 1
        assert "unknown case" in capsys.readouterr().err

    def test_plane_duals(self, capsys):
        assert cli.main(["case", "plane-duals"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Fraction(out["kappa"]) == Fraction(1, 6)
        for check in out["checks"]:
            assert Fraction(check["plane_value"]) == Fraction(check["xyz"])

    def test_nonuniform222(self, capsys):
        assert cli.main(["case", "nonuniform222"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["unique"] is True
        assert Fraction(out["witness"]["0,0,0"]) == 0
        assert Fraction(out["witness"]["0,1,0"]) == Fraction(1, 6)

    def test_nonstrong_small(self, capsys):
        assert cli.main(["case", "nonstrong", "--N", "6"]) == 0
        out = json.loads(capsys.readouterr().out)
        diag = [Fraction(v) for v in out["F_diagonal"]]
        # The diagonal recurrence: consecutive differences are exactly 3.
        diffs = {b - a for a, b in zip(diag[:-1], diag[1:])}
        assert diffs == {3}

    def test_discontinuous_small(self, capsys):
        assert cli.main(["case", "discontinuous", "--N", "6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert Fraction(out["dual_value"]) == Fraction(1, 6)
        assert out["slack_cells"] < out["total_cells"]

    def test_uniformband_emits_images(self, tmp_path, capsys):
        assert (
            cli.main(
                ["case", "uniformband", "--N", "6", "--out", str(tmp_path)]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert len(out["slices"]) == 3
        for path in out["slices"]:
            with open(path) as fh:
                assert fh.read(2) == "P2"

    @pytest.mark.parametrize("name", ["unreachable", "nonstrong", "discontinuous", "uniformband"])
    def test_size_zero_is_not_the_default_size(self, tmp_path, capsys, name):
        # `args.N or 12` ran --N 0 at the default size and exited 0.
        assert cli.main(["case", name, "--N", "0", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out == ""

    def test_unreachable_small(self, capsys):
        assert cli.main(["case", "unreachable", "--N", "6"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["weighted_growth"] > 0
        for entry in out["gamma_bounds"]:
            for v in entry["lp_min"]:
                assert v >= entry["lower_bound"] - 1e-8


class TestFigure:
    def test_sierpinski(self, tmp_path, capsys):
        out = tmp_path / "s.pgm"
        assert (
            cli.main(
                ["figure", "sierpinski", "--depth", "4", "--out", str(out)]
            )
            == 0
        )
        header = out.read_text().splitlines()[:3]
        assert header == ["P2", "16 16", "1"]
        capsys.readouterr()

    @pytest.mark.parametrize("depth, size", [(["--depth", "0"], "1 1"), ([], "32 32")])
    def test_sierpinski_depth_zero_and_default(self, tmp_path, capsys, depth, size):
        out = tmp_path / "s.pgm"
        assert cli.main(["figure", "sierpinski", *depth, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[:3] == ["P2", size, "1"]
        capsys.readouterr()

    def test_unknown_figure(self, capsys):
        assert cli.main(["figure", "nope"]) == 1
