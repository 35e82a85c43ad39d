"""Known mutants of ``src/l2srl`` that the tier-1 tests must catch.

Run from anywhere, with pytest installed:

    python tests/mutants.py

Each entry of ``MUTANTS`` is ``(name, file, old text, new text)``, with
``file`` relative to ``src``.  For each entry the script copies ``src`` to a
temporary directory, replaces the old text there with the new, and runs the
tier-1 tests against that copy with ``-x``; the run must end in a failed test.
A mutant that passes, or that breaks the run another way (an import error,
say), makes the script exit 1.  An old text that is missing from its file or
found there more than once exits 2 before any run, so the catalogue is kept in
step with the code.

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    ("viterbi: the second slot wins an inner tie", "l2srl/tagger.py",
     "                if b > a:\n",
     "                if b >= a:\n"),
    ("viterbi: the later closed label wins a tie", "l2srl/tagger.py",
     "(candidate == best and k < best_k)",
     "(candidate == best and k > best_k)"),
    ("viterbi: the pruned scan stops on a tie", "l2srl/tagger.py",
     "elif score + top < best:",
     "elif score + top <= best:"),
    ("viterbi_decode accepts predicate n + 1", "l2srl/tagger.py",
     "if not 1 <= predicate_index <= n:",
     "if not 1 <= predicate_index <= n + 1:"),
    ("viterbi: the first token may start on any label", "l2srl/tagger.py",
     "    for j in (rel, *grammar.opening):\n",
     "    for j in range(size):\n"),
    ("viterbi: the final scan may end on any label", "l2srl/tagger.py",
     "    for j in closed:\n        if scores[j] > best:\n",
     "    for j in range(size):\n        if scores[j] > best:\n"),
    ("tag accepts duplicate predicates", "l2srl/tagger.py",
     "if len(set(indices)) != len(indices):",
     "if False:"),
    ("weight lanes read unsigned", "l2srl/tagger.py",
     'struct.Struct(f"<{size}q")',
     'struct.Struct(f"<{size}Q")'),
    ("_window pads the last word", "l2srl/tagger.py",
     "if 0 < k <= n else",
     "if 0 < k < n else"),
    ("emissions view keeps a copy of the labels", "l2srl/tagger.py",
     "        self._labels = model.labels\n",
     "        self._labels = list(model.labels)\n"),
    ("emissions view writes every label to lane 0", "l2srl/tagger.py",
     "            j = self._labels.index(lab)\n",
     "            j = 0\n"),
    ("emissions view reads a row of the wrong length", "l2srl/tagger.py",
     "            return default\n        _check_rows((row,), len(self._labels))\n",
     "            return default\n"),
    ("emissions view writes a row of the wrong length", "l2srl/tagger.py",
     "[0] * len(self._labels))\n        _check_rows((row,), len(self._labels))\n",
     "[0] * len(self._labels))\n"),
    ("scorer cache ignores the number of transitions", "l2srl/tagger.py",
     "        and len(cached[1]) == len(transitions)\n",
     ""),
    ("_scorer's row-length check removed", "l2srl/tagger.py",
     "    _check_rows(model.rows.values(), len(labels))\n",
     ""),
    ("model weights with surrounding whitespace accepted", "l2srl/tagger.py",
     ' or raw != raw.strip()',
     ""),
    ("a model row of unknown kind loads as an E row", "l2srl/tagger.py",
     '        elif kind == "T":\n',
     "        elif True:\n"),
    ("a T row is checked as an E row", "l2srl/tagger.py",
     '        if kind == "E":\n',
     "        if True:\n"),
    ("round2 rounds half to even", "l2srl/scoring.py",
     "rounding=ROUND_HALF_UP",
     'rounding="ROUND_HALF_EVEN"'),
    ("am_coarse ignored in _frame_triples", "l2srl/scoring.py",
     "coarse_label(s.label)) for s in frame.spans}",
     "s.label) for s in frame.spans}"),
    ("score's delta_f row drops the ALL scope", "l2srl/scoring.py",
     'if key.endswith("/L2") else "ALL"',
     'if True else "ALL"'),
    ("is_selected checks the L2 side only", "l2srl/agreement.py",
     "        and recall.l1_recall > config.p\n",
     ""),
    ("recall_pair swaps the sides", "l2srl/agreement.py",
     "match_tuples(pair.alignment.links, l2_tuples, l1_tuples, am_coarse)",
     "match_tuples(pair.alignment.links, l1_tuples, l2_tuples, am_coarse)"),
    ("the aligner's greedy tie goes to the later position", "l2srl/agreement.py",
     "i - positions[k - 1] <= positions[k] - i",
     "i - positions[k - 1] < positions[k] - i"),
    ("pair_corpora accepts an L2 link at len(l2)", "l2srl/corpus.py",
     "0 <= i < n2",
     "0 <= i <= n2"),
    ("pair_corpora drops an L1 sentence without an L2 counterpart", "l2srl/corpus.py",
     "        if pair_id not in l2_by_pair:\n",
     "        if False:\n"),
    ("write_atomic leaves its temp file on failure", "l2srl/corpus.py",
     "        os.remove(tmp)\n",
     "        pass\n"),
    ("checked_tag's cache is unbounded", "l2srl/model.py",
     "@lru_cache(maxsize=1024)",
     "@lru_cache(maxsize=None)"),
    ("_indices drops the last index", "l2srl/corpus.py",
     "range(1, n + 1)",
     "range(1, n)"),
    ("_boundary's tie goes to the later start", "l2srl/oracle.py",
     "rank == best_rank and gs < best[0]",
     "rank == best_rank and gs > best[0]"),
    ("the retrain config leaves a missing alignment file unchecked", "l2srl/pipeline.py",
     '        if self.alignments != "heuristic":\n',
     "        if False:\n"),
    ("the retrain report divides by an empty pool", "l2srl/pipeline.py",
     "if self.pool_size else 0.0",
     "if True else 0.0"),
    ("retrain checks the report paths only when it writes them", "l2srl/pipeline.py",
     '    for suffix in ("txt", "tsv", "json"):\n'
     '        if os.path.isdir(path := os.path.join(out, f"report.{suffix}")):\n'
     '            raise IsADirectoryError(f"report path is a directory: {path}")\n',
     ""),
    ("a ParseError without a line reads line None", "l2srl/errors.py",
     "        if line is not None:\n",
     "        if True:\n"),
    ("select divides by an empty pool", "l2srl/cli.py",
     "if pairs else 0.0",
     "if True else 0.0"),
    ("train ignores --seed", "l2srl/cli.py",
     "seed=1 if args.seed is None else args.seed",
     "seed=1 if True else args.seed"),
    ("train leaves the default seed unset", "l2srl/cli.py",
     "seed=1 if args.seed is None else args.seed",
     "seed=1 if False else args.seed"),
    ("the retrain text report flips the delta sign", "l2srl/pipeline.py",
     "delta {fmt2(new.f1 - base.f1)",
     "delta {fmt2(base.f1 - new.f1)"),
    ("render_model's weight table drops float()", "l2srl/tagger.py",
     "text = {w: repr(float(w)) for w in",
     "text = {w: repr(w) for w in"),
    ("a token line's predicate marker may be any text", "l2srl/corpus.py",
     'if cells[2] not in ("Y", "_"):',
     "if False:"),
    ("a header line's key is not checked", "l2srl/corpus.py",
     "if not line.startswith(prefix):",
     "if False:"),
    ("an alignment line may have an empty pair id", "l2srl/corpus.py",
     "if not pair_id:",
     "if False:"),
    ("a model's label set may lack O or rel", "l2srl/tagger.py",
     "if O_TAG not in labels or REL_TAG not in labels:",
     "if False:"),
    ("the retrain config rejects epochs = 1", "l2srl/pipeline.py",
     "if self.epochs < 1:",
     "if self.epochs <= 1:"),
    ("viterbi: an opening label settles on a tie", "l2srl/tagger.py",
     "if second + top < best:",
     "if second + top <= best:"),
    ("viterbi_decode keeps only a token's first weight row", "l2srl/tagger.py",
     "row = map(add, row, hit)",
     "row = map(add, row, zero)"),
    ("a header value may be empty or padded", "l2srl/corpus.py",
     'if not value or value != value.strip() or "\\t" in value:',
     "if False:"),
    ("a token line may have fewer than 3 columns", "l2srl/corpus.py",
     "if len(cells) < 3:",
     "if False:"),
    ("a non-integer token index reads as out of sequence", "l2srl/corpus.py",
     "if not _is_ascii_digits(cells[0]):",
     "if False:"),
]


def _check() -> list[str]:
    """One problem line per entry whose old text is not in its file once."""
    problems = []
    for name, file, old, _ in MUTANTS:
        count = (ROOT / "src" / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{name}: old text found {count} times in src/{file}")
    return problems


def _run(name, file, old, new) -> tuple[bool, str]:
    """Run tier-1 against a mutated copy of ``src``: (caught, the failed test
    or else the last output line)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    lines = run.stdout.strip().splitlines() or [run.stderr.strip()]
    failed = [line[7:].split(" - ")[0] for line in lines if line.startswith("FAILED ")]
    # pytest exits 1 when a test failed; 0 is a survivor and anything else
    # (collection or usage errors) says nothing about the tests.
    return run.returncode == 1, (failed or lines)[-1]


def main() -> int:
    problems = _check()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    survivors = []
    for mutant in MUTANTS:
        start = time.perf_counter()
        caught, last = _run(*mutant)
        status = "caught" if caught else "NOT CAUGHT"
        print(f"{status:<10} {time.perf_counter() - start:5.1f}s  {mutant[0]}  [{last}]", flush=True)
        if not caught:
            survivors.append(mutant[0])
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
