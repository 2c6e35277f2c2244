"""Set-up of one benchmark run: make the workload's inputs from its seed.

``run.py`` writes a request and starts this script in a fresh interpreter,
several times per run::

    python3 perfbench/prepare.py REQUEST

Each start does the whole set-up from scratch: import the package, read the
network, inject the latents of every input and, for the CSV workloads, sample
each input's rows and write its CSV. ``run.py`` times each start from spawn
to exit; ``setup_s`` is the median. The inputs and the rejected seeds go to
``inputs.json`` in the request's work directory. The same request writes the
same bytes every time.

Input *r* of a run with seed *s* is repetition *r* of
``latentdag.bench.run_benchmark`` with ``InjectionConfig(seed=s)``: it
injects with seed ``s + 1_000_003 (r + 1)`` and samples with seed
``s + 7_919 (r + 1)``. A repetition whose injection raises
``InjectionError`` is reported and the next repetition takes its place.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path
from time import perf_counter

INJECTION_STRIDE = 1_000_003
SAMPLE_STRIDE = 7_919
MAX_REJECTED = 20


def write_csv(d, path: Path) -> None:
    """Write a dataset as users would hand it to `latentdag discover`."""
    import numpy as np

    labels = [np.asarray(v.states, dtype=object) for v in d.variables]
    columns = [labels[j][d.values[:, j]] for j in range(d.n_variables)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([v.name for v in d.variables])
        w.writerows(zip(*columns))


def set_up(ld, spec: dict, seed: int, work: Path) -> tuple[list[dict], list[dict]]:
    """The workload's inputs and the rejected repetitions, in order."""
    net_path = Path(spec["net_path"])
    bn = ld.bn_from_json(net_path.read_text(encoding="utf-8"))
    observed = [v.name for v in bn.variables]
    inputs, rejected = [], []
    rep = 0
    while len(inputs) < spec["inputs"]:
        if len(rejected) > MAX_REJECTED:
            raise RuntimeError(f"{len(rejected)} injection seeds rejected: {rejected[-1]}")
        item = {"rep": rep, "injection_seed": seed + INJECTION_STRIDE * (rep + 1),
                "sample_seed": seed + SAMPLE_STRIDE * (rep + 1)}
        rep += 1
        start = perf_counter()
        try:
            injected, truth = ld.inject_confounders(bn, ld.InjectionConfig(seed=item["injection_seed"]))
        except ld.InjectionError as exc:
            rejected.append({**item, "error": str(exc)})
            print(f"injection seed {item['injection_seed']} rejected ({exc}); "
                  "taking the next repetition", file=sys.stderr)
            continue
        if spec["csv"]:
            data = ld.project(ld.sample(injected, spec["rows"], seed=item["sample_seed"]), observed)
            item["csv"] = str(work / f"input-{len(inputs)}.csv")
            item["out_json"] = str(work / f"cpdag-{len(inputs)}.json")
            write_csv(data, Path(item["csv"]))
            truth_cpdag = ld.cpdag_of(injected.dag)
            truth_cpdag.latents = [(n, (injected.id_of(a), injected.id_of(b))) for n, (a, b) in truth]
            item["truth"] = truth
            item["truth_cpdag"] = truth_cpdag.to_json()
        item["setup_s"] = perf_counter() - start
        inputs.append(item)
    return inputs, rejected


def main(request_path: str) -> None:
    req = json.loads(Path(request_path).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(req["root"]) / "src"))
    import latentdag as ld

    work = Path(req["work"])
    inputs, rejected = set_up(ld, req["spec"], req["seed"], work)
    (work / "inputs.json").write_text(json.dumps({"inputs": inputs, "rejected": rejected}),
                                      encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
