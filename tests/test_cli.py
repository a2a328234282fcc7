"""CLI tests (python -m repro ...)."""

import io

import pytest

from repro.cli import main


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "sg.dl"
    path.write_text("""
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
        ?- sg(a, Y).
    """)
    return str(path)


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "facts.dl"
    path.write_text("""
        up(a, b). up(b, c).
        flat(c, c1). flat(b, b1).
        down(c1, d1). down(d1, e1). down(b1, f1).
    """)
    return str(path)


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestRun:
    def test_auto(self, program_file, db_file):
        code, text = run_cli("run", program_file, "--db", db_file)
        assert code == 0
        assert "pointer_counting" in text
        assert "('e1',)" in text
        assert "count  : 2 answers" in text

    def test_forced_method(self, program_file, db_file):
        code, text = run_cli(
            "run", program_file, "--db", db_file, "--method", "magic"
        )
        assert code == 0
        assert "magic" in text

    def test_divergence_reported_as_error(self, program_file, tmp_path):
        cyclic = tmp_path / "cyclic.dl"
        cyclic.write_text("""
            up(a, b). up(b, a). flat(b, x). down(x, y).
        """)
        code, text = run_cli(
            "run", program_file, "--db", str(cyclic),
            "--method", "classical_counting",
        )
        assert code == 1
        assert "error" in text

    def test_missing_file(self):
        code, text = run_cli("run", "/nonexistent/p.dl")
        assert code == 1
        assert "error" in text

    def test_timeout_flag_passes_when_generous(self, program_file,
                                               db_file):
        code, text = run_cli(
            "run", program_file, "--db", db_file, "--timeout", "60"
        )
        assert code == 0
        assert "count  : 2 answers" in text

    def test_max_facts_budget_reported_as_error(self, program_file,
                                                db_file):
        code, text = run_cli(
            "run", program_file, "--db", db_file,
            "--method", "naive", "--max-facts", "1",
        )
        assert code == 1
        assert "derived-fact budget" in text

    def test_resilient_recovers_from_divergence(self, program_file,
                                                tmp_path):
        cyclic = tmp_path / "cyclic.dl"
        cyclic.write_text("""
            up(a, b). up(b, a). flat(b, x). down(x, y).
        """)
        code, text = run_cli(
            "run", program_file, "--db", str(cyclic), "--resilient"
        )
        assert code == 0
        assert "resilient" in text
        # Failed stages are itemised with their typed errors.
        assert "tried  : pointer_counting -> NotApplicableError" in text
        assert "count  :" in text

    def test_resilient_chain_starts_at_requested_method(
            self, program_file, db_file):
        code, text = run_cli(
            "run", program_file, "--db", db_file,
            "--method", "sup_magic", "--resilient",
        )
        assert code == 0
        assert "method : sup_magic (resilient, 0 failed attempts)" in text

    def test_parallel_method_answers_like_naive(self, tmp_path):
        """``--method parallel`` reaches the strategy through
        ``optimize`` -> ``run_strategy``, the one CLI route to it."""
        from repro.data.workloads import WORKLOADS
        from repro.datalog import format_query

        workload = WORKLOADS["sg_tree"]
        program = tmp_path / "sg_tree.dl"
        program.write_text(format_query(workload.query))
        facts = tmp_path / "sg_tree_facts.dl"
        facts.write_text(workload.make_db(fanout=3, depth=4)[0].to_text())

        def answers(method):
            code, text = run_cli("run", str(program), "--db", str(facts),
                                 "--method", method)
            assert code == 0, text
            return [line for line in text.splitlines()
                    if line.startswith("answer :")]

        naive = answers("naive")
        assert naive
        assert answers("parallel") == naive

    def test_inline_facts_without_db(self, tmp_path):
        # The program carries its own base facts and no --db is given:
        # every method prints naive's answers.
        program = tmp_path / "a.dl"
        program.write_text("""
            e(a, b). e(b, c). e(c, a). e(d, d). e(a, e).
            p(X, Y) :- e(X, Y).
            p(X, Y) :- e(X, Z), p(Z, Y).
            ?- p(a, Y).
        """)

        def answers(method):
            code, text = run_cli("run", str(program), "--method", method)
            assert code == 0, text
            return [line for line in text.splitlines()
                    if line.startswith("answer :")]

        naive = answers("naive")
        assert len(naive) == 4
        for method in ("auto", "magic", "cyclic_counting"):
            assert answers(method) == naive, method

    def test_fact_of_a_derived_predicate(self, tmp_path):
        # ``p(c, z).`` beside the rules of ``p``: the default method
        # (reduced_counting) must print naive's five answers, not drop
        # the fact.
        program = tmp_path / "a.dl"
        program.write_text("""
            e(a, b). e(b, c). e(c, d). e(a, e).
            p(c, z).
            p(X, Y) :- e(X, Y).
            p(X, Y) :- e(X, Z), p(Z, Y).
            ?- p(a, Y).
        """)

        def answers(method):
            code, text = run_cli("run", str(program), "--method", method)
            assert code == 0, text
            return [line for line in text.splitlines()
                    if line.startswith("answer :")]

        naive = answers("naive")
        assert len(naive) == 5
        assert "answer : ('z',)" in naive
        for method in ("auto", "magic", "pointer_counting",
                       "reduced_counting"):
            assert answers(method) == naive, method


class TestDurableRoute:
    """``run --wal DIR --checkpoint``, then ``recover DIR --dump``, then
    ``run --db`` on the dump: the recovered facts must answer
    byte-identically to the run that wrote them."""

    @staticmethod
    def answers(text):
        return [line for line in text.splitlines()
                if line.startswith("answer :")]

    def test_checkpoint_recover_dump_rerun(self, program_file, db_file,
                                           tmp_path):
        import json

        state = str(tmp_path / "state")
        dump = str(tmp_path / "dump.dl")
        code, first = run_cli(
            "run", program_file, "--db", db_file, "--method", "magic",
            "--wal", state, "--fsync", "always", "--checkpoint",
        )
        assert code == 0
        assert "ckpt   : " in first
        assert self.answers(first)
        code, text = run_cli("recover", state, "--dump", dump)
        assert code == 0
        report = json.loads(text[:text.index("\nfacts  :")])
        assert report["checkpoint"] is not None
        assert report["replayed"] == 0
        assert not report["truncated_tail"]
        assert "facts  : 7 across 3 relation(s)" in text
        for method in ("magic", "pointer_counting"):
            code, again = run_cli("run", program_file, "--db", dump,
                                  "--method", method)
            assert code == 0
            assert self.answers(again) == self.answers(first)

    def test_reopening_replays_from_the_checkpoint(self, program_file,
                                                   db_file, tmp_path):
        state = str(tmp_path / "state")
        args = ("run", program_file, "--db", db_file, "--wal", state)
        code, first = run_cli(*args, "--checkpoint")
        assert code == 0
        code, second = run_cli(*args)
        assert code == 0
        assert "recover: 1 WAL record(s), checkpoint@1" in second
        assert self.answers(second) == self.answers(first)


class TestRewrite:
    @pytest.mark.parametrize(
        "method,marker",
        [
            ("magic", "m_sg__bf"),
            ("classical_counting", "c_sg__bf"),
            ("extended_counting", "CNT_PATH"),
            ("reduced_counting", "c_sg__bf"),
            ("cyclic_counting", "cycle_sg__bf"),
        ],
    )
    def test_methods(self, program_file, method, marker):
        code, text = run_cli(
            "rewrite", program_file, "--method", method
        )
        assert code == 0
        assert marker in text


class TestExplain:
    def test_without_db(self, program_file):
        code, text = run_cli("explain", program_file)
        assert code == 0
        assert "cyclic_counting" in text

    def test_with_db(self, program_file, db_file):
        code, text = run_cli("explain", program_file, "--db", db_file)
        assert code == 0
        assert "pointer_counting" in text


class TestBench:
    def test_workload(self):
        code, text = run_cli(
            "bench", "sg_chain", "--methods", "naive,magic",
            "--param", "depth=6",
        )
        assert code == 0
        assert "naive" in text
        assert "vs_magic" in text

    def test_default_methods(self):
        code, text = run_cli("bench", "mixed_linear")
        assert code == 0
        assert "reduced_counting" in text

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("bench", "nope")


class TestTrace:
    def test_derivation_trees_printed(self, program_file, db_file):
        code, text = run_cli("trace", program_file, "--db", db_file)
        assert code == 0
        assert "sg(a," in text
        assert "up(a, b)" in text
        assert "[r1]" in text

    def test_limit(self, program_file, db_file):
        code, text = run_cli(
            "trace", program_file, "--db", db_file, "--limit", "1"
        )
        assert code == 0
        assert "more answers" in text

    def test_no_answers(self, program_file, tmp_path):
        empty = tmp_path / "empty.dl"
        empty.write_text("up(z, w).")
        code, text = run_cli("trace", program_file, "--db", str(empty))
        assert code == 0
        assert "no answers" in text


class TestExperiments:
    def test_runs_filtered_bench(self):
        # One cheap claim test keeps this fast while exercising the
        # whole pytest-dispatch path.
        code, _text = run_cli(
            "experiments", "-e", "e2_magic_set_linear"
        )
        assert code == 0


class TestGen:
    def test_prints_facts(self):
        code, text = run_cli("gen", "sg_chain", "--param", "depth=3")
        assert code == 0
        assert "up(a, x1)." in text
        assert "flat(" in text

    def test_writes_file_and_round_trips(self, tmp_path, program_file):
        target = str(tmp_path / "facts.dl")
        code, text = run_cli(
            "gen", "sg_chain", "--param", "depth=4", "-o", target
        )
        assert code == 0
        assert "wrote" in text
        # The generated file is directly usable as a --db input.
        code, text = run_cli("run", program_file, "--db", target)
        assert code == 0
        assert "answers" in text


class TestModuleEntry:
    def test_python_dash_m(self, program_file, db_file):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", program_file,
             "--db", db_file],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "answers" in completed.stdout

    def test_console_script_if_installed(self, program_file, db_file):
        import shutil
        import subprocess

        script = shutil.which("repro")
        if script is None:
            pytest.skip("console script not on PATH")
        completed = subprocess.run(
            [script, "run", program_file, "--db", db_file],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0
        assert "answers" in completed.stdout
