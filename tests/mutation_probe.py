"""Curated one-line mutants of the package, each run against Tier-1: killed or survived, and by which test.

Each mutant replaces one piece of text, on one line of `src/mulki/`, in a
temporary copy of the repository (src, tests, configs and pyproject.toml),
then runs Tier-1 there with `-x` and reports the first failing test. Most of
them make the trainer ignore a config key by passing the key's default
literal instead; the rest break the teacher-weight rule, the work a
stack shares between its lanes, or the keyed batch draw. A mutant whose text
no longer occurs exactly once is reported as stale, so the list has to keep
up with the code. Standard library only; pytest does not collect this file.

    python tests/mutation_probe.py                  # every mutant: ~25 s per kill on 2 cores, a full Tier-1 per survivor
    python tests/mutation_probe.py gamma0 adam_eps  # the named ones
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")
TIMEOUT_S = 1800

# name: (module under src/mulki, the text the mutant replaces, its replacement)
MUTANTS = {
    # a config key's default literal in place of the config's value
    "alpha": ("losses.py", "weights, hyper.alpha, hyper.beta,", "weights, 1.0, hyper.beta,"),
    "beta": ("losses.py", "weights, hyper.alpha, hyper.beta,", "weights, hyper.alpha, 1.0,"),
    "tau@csa_loss": ("losses.py", "csa_loss(protos, student.texts, hyper.tau)", "csa_loss(protos, student.texts, 2.0)"),
    "tau@student_outputs": ("losses.py", "token_ids, pt_protos, hyper.tau, img_text=", "token_ids, pt_protos, 2.0, img_text="),
    "lambda1": ("losses.py", "terms.append((csa, hyper.lambda1))", "terms.append((csa, 1.0))"),
    "lambda2": ("losses.py", "terms.append((mdd, hyper.lambda2))", "terms.append((mdd, 1.0))"),
    "lambda_wc": ("losses.py", "terms.append((wc, hyper.lambda_wc))", "terms.append((wc, 0.1))"),
    "gamma0": ("runner.py", "gamma0=hyper.gamma0", "gamma0=0.0"),
    "gamma_max": ("runner.py", "gamma_max=hyper.gamma_max", "gamma_max=0.98"),
    "gamma_step": ("prototypes.py", "self._updates * self.gamma_step", "self._updates * 0.04"),
    "weight_decay": ("runner.py", "weight_decay=hyper.weight_decay", "weight_decay=1e-4"),
    "adam_eps": ("runner.py", "eps=hyper.adam_eps", "eps=1e-8"),
    # the teacher-weight rule
    "similarity@sample_weights": ("losses.py", "return e[0] / (e[0] + e[1])", "return np.full_like(e[0], 0.5)"),
    "similarity@mdd_loss": (  # still calls sample_weights, so the caller gate cannot be what kills it
        "losses.py", "student.img_text_dist.data) if lanes.weighs", "student.img_text_dist.data) * 0.0 + 0.5 if lanes.weighs",
    ),
    "fixed_lane_takes_similarity": ("losses.py", "np.where(lanes.similar[..., None], r0, fixed)", "np.where(True, r0, fixed)"),
    "p&t_lane_mask_dropped": ("losses.py", "[0.5 * beta * on for on in lanes.on]", "[0.5 * beta for on in lanes.on]"),
    # the stack's shared work: one draw per seed, the scatter-add EMA, the loss sum
    "draw_map_shifted": (  # lane s takes the draw of lane s - 1's seed
        "taskgen.py", "lanes = [distinct.index(tuple(prefix)) for prefix in prefixes]",
        "lanes = np.roll([distinct.index(tuple(prefix)) for prefix in prefixes], 1).tolist()",
    ),
    "scatter_lane_offset_dropped": ("prototypes.py", "(by_seed + np.arange(0, rows.shape[0], k)[:, None])", "(by_seed + 0)"),
    "loss_sum_csa_mdd_swapped": (  # csa gets lambda2 and mdd lambda1, in the value and the gradients
        "losses.py", "    data = supervised.data", "    data, terms = supervised.data, [terms[0], (terms[1][0], terms[2][1]), (terms[2][0], terms[1][1]), *terms[3:]]",
    ),
    # the keyed draw: numpy's SeedSequence, PCG64 and Lemire mapping in array arithmetic
    "seed_sequence_init_b_off_by_one": ("taskgen.py", "0x8B51F9DD, 0x58F38DED", "0x8B51F9DE, 0x58F38DED"),
    "pcg_output_halves_swapped": ("taskgen.py", "np.stack((out & _LOW, out >> _32), axis=-1)", "np.stack((out >> _32, out & _LOW), axis=-1)"),
    "rejection_fallback_dropped": ("taskgen.py", "np.flatnonzero(long | ((draws & _LOW) < (2**32 - n) % n).any(1))", "np.flatnonzero(long)"),
}


def mutate(copy: Path, module: str, old: str, new: str) -> str | None:
    """Apply one mutant inside `copy`; None, or why it cannot be applied."""
    path = copy / "src" / "mulki" / module
    text = path.read_text()
    if text.count(old) != 1:
        return f"stale: the text occurs {text.count(old)} times in {module}"
    mutated = text.replace(old, new)
    try:
        ast.parse(mutated)
    except SyntaxError as exc:
        return f"unparsable: {exc}"
    path.write_text(mutated)
    return None


def run(name: str) -> tuple[str, str, float]:
    """(result, killing test or reason, seconds) for one mutant."""
    module, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mulki-mutant-") as tmp:
        copy = Path(tmp)
        for part in COPIED:
            source = ROOT / part
            if source.is_dir():
                shutil.copytree(source, copy / part, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy2(source, copy / part)
        problem = mutate(copy, module, old, new)
        if problem:
            return "not run", problem, 0.0
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.monotonic()
        try:
            done = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", f"Tier-1 ran over {TIMEOUT_S} s", time.monotonic() - start
        seconds = time.monotonic() - start
    if done.returncode == 0:
        return "survived", "", seconds
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    if done.returncode == 1 and failed:
        return "killed", failed.group(1), seconds
    return "error", f"pytest exit {done.returncode}: {done.stdout.strip().splitlines()[-1:]}", seconds


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutant(s) {unknown}; known: {', '.join(MUTANTS)}", file=sys.stderr)
        return 2
    print("| mutant | module | result | first failing test | s |")
    print("| --- | --- | --- | --- | --- |")
    results = []
    for name in names or list(MUTANTS):
        result, detail, seconds = run(name)
        results.append(result)
        print(f"| {name} | {MUTANTS[name][0]} | {result} | {detail} | {seconds:.0f} |", flush=True)
    print(f"\n{results.count('killed')} of {len(results)} killed")
    return 0 if all(result == "killed" for result in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
