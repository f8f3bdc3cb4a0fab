"""Write `goldens.json`: each job's exit code and stable payload fields.

    python3 perfbench/make_goldens.py [--check]

Runs every job of every workload once for each of three seeds and refuses
to write unless the results agree across seeds (invariance under the
seeded change of basis and rescaling) and match independent predictions:

  - su2 and sl2 have Betti numbers (1, 0, 0, 1); their adjoint
    cohomology vanishes (Whitehead's lemma);
  - the adjoint module of a sum g + h splits, so H(g + h; g + h) =
    H(g; g) (x) H(h) + H(g) (x) H(h; h), for su2 + diamond4 and h3 + aff1;
  - abelian r_n has Betti numbers C(n, p) and passes every Hopf check;
  - sl2_action sweeps to (1, 2, 1, 0) at every window;
  - a rank-1 anchor c sin(kt) sweeps to (1, 2k + 1) at every window, one
    class per simple zero plus the constants (the anchors here have only
    simple zeros, so the windowed and smooth answers agree);
  - a transitive constant anchor sweeps to (1, 1);
  - every Kunneth product equals the convolution of its factors' Betti
    numbers, which are pinned by other jobs or the predictions above;
  - a surjective anchor with a nonzero covector gives an exact symbol
    complex.

With `--check` it compares against the existing file instead of writing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from math import comb

from run import HERE, OUT, SRC, parse_output, run_job, stable_fields
import workloads

SEEDS = (1, 2, 3)
GOLDENS = HERE / "goldens.json"


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def collect(cli):
    """{workload: {job: golden}}, checked for agreement across seeds."""
    out = {}
    for workload in workloads.WORKLOADS:
        seen = {}
        for seed in SEEDS:
            inputs = OUT / f"goldens-{workload}-seed{seed}"
            shutil.rmtree(inputs, ignore_errors=True)
            for job in workloads.generate(workload, seed, inputs):
                code, stdout, _ = run_job(cli, job)
                payload = parse_output(stdout)
                golden = {"exit": code,
                          "fields": stable_fields(payload) if payload is not None else None}
                if seen.setdefault(job["name"], golden) != golden:
                    raise SystemExit(f"{workload}/{job['name']}: seed {seed} gives "
                                     f"{golden}, an earlier seed {seen[job['name']]}")
        out[workload] = seen
    return out


def predictions(g):
    """Yield (label, holds) for every independent prediction."""
    mix, adj = g["catalog-mix"], g["ce-adjoint"]
    sweep, kun = g["window-sweep"], g["kunneth-product"]
    for workload, jobs in g.items():
        for name, golden in jobs.items():
            yield f"{workload}/{name} exits 0", golden["exit"] == 0

    def betti(jobs, name):
        return jobs[name]["fields"]["betti"]

    yield "su2 betti", betti(mix, "lie-cohomology-su2") == [1, 0, 0, 1]
    yield "sl2 betti", betti(mix, "lie-cohomology-sl2") == [1, 0, 0, 1]
    for name in ("adjoint-su2", "adjoint-sl2"):
        yield f"{name} vanishes", betti(adj, name) == [0] * 4
    for g, h in (("su2", "diamond4"), ("h3", "aff1")):
        # H(g + h; g + h) = H(g; g) (x) H(h) + H(g) (x) H(h; h)
        ad_g, ad_h = betti(adj, f"adjoint-{g}"), betti(adj, f"adjoint-{h}")
        triv_g, triv_h = betti(mix, f"lie-cohomology-{g}"), betti(mix, f"lie-cohomology-{h}")
        expected = [x + y for x, y in zip(convolve(ad_g, triv_h), convolve(triv_g, ad_h))]
        yield f"adjoint {g} + {h} splits", betti(adj, f"adjoint-{g}_{h}") == expected
    for n in range(1, 5):
        f = mix[f"hopf-r{n}"]["fields"]
        yield f"hopf r{n}", (f["betti"] == [comb(n, p) for p in range(n + 1)]
                             and f["h_structure_ok"] and all(f["hopf"].values()))
    yield "hopf su2 skips the coproduct", mix["hopf-su2"]["fields"]["hopf"] is None

    def sweeps_to(fields, expected):
        return fields["betti"] == expected and all(b == expected for _, b in fields["per_N"])

    yield "sl2_action sweep", sweeps_to(sweep["sweep-sl2_action"]["fields"], [1, 2, 1, 0])
    yield "small sl2_action sweep", sweeps_to(mix["circle-sl2_action"]["fields"], [1, 2, 1, 0])
    for k in (1, 2):
        for jobs, name in ((sweep, f"sweep-sin{k}"), (mix, f"circle-sin{k}")):
            yield f"{name}: c sin({k}t)", sweeps_to(jobs[name]["fields"], [1, 2 * k + 1])
    for name in ("circle-r_action", "circle-const1-catalog"):
        yield f"{name} sweep", sweeps_to(mix[name]["fields"], [1, 1])

    def kunneth(fields, left, right):
        return fields["ok"] and fields["betti_product"] == convolve(left, right)

    yield "kunneth sl2_action x su2", kunneth(kun["kunneth-sl2_action-su2"]["fields"],
                                              [1, 2, 1, 0], [1, 0, 0, 1])
    yield "kunneth h3 x aff1", kunneth(mix["kunneth-h3-aff1"]["fields"],
                                       betti(mix, "lie-cohomology-h3"),
                                       betti(mix, "lie-cohomology-aff1"))
    yield "kunneth su2 x r2", kunneth(mix["kunneth-su2-r2"]["fields"], [1, 0, 0, 1], [1, 2, 1])
    yield "kunneth c sin(t) x r1", kunneth(mix["kunneth-sin1-r1"]["fields"], [1, 3], [1, 1])
    for name, golden in mix.items():
        if name.startswith("symbol-"):
            yield f"{name} exact", golden["fields"]["exact"] is True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the existing goldens instead of writing")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from algebroid import cli

    goldens = collect(cli)
    failed = [label for label, holds in predictions(goldens) if not holds]
    for label in failed:
        print(f"prediction fails: {label}", file=sys.stderr)
    if failed:
        return 1
    text = json.dumps(goldens, indent=1, sort_keys=True) + "\n"
    if args.check:
        same = GOLDENS.read_text(encoding="utf-8") == text
        print("goldens match" if same else "goldens differ", file=sys.stderr)
        return 0 if same else 1
    GOLDENS.write_text(text, encoding="utf-8")
    print(f"wrote {GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
