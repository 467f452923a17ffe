#!/usr/bin/env python3
"""Survey the droplet phenomenology at the workhorse parameter point.

Writes the spin-model spectrum, the droplet classification, the optimized
variational length, and the ground-state pair correlation into out/survey/.
"""

import argparse
import math
import os

from droplet_lattice import (
    Pipeline,
    classify_droplet_states,
    default_params,
    minimize_variational,
    pair_correlation,
)
from droplet_lattice.observables import write_pair_corr_csv
from droplet_lattice.output import write_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/survey")
    parser.add_argument("--spacing", type=int, default=1)
    parser.add_argument("--delta", type=float, default=-1 / 50)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    pipe = Pipeline(default_params(spacing=args.spacing, delta=args.delta))
    decomp = pipe.spectrum("spin")
    write_csv(
        os.path.join(args.out, "spectrum.csv"), ["E_minus_E0b"], ([e] for e in decomp.energies)
    )

    variational = minimize_variational(pipe.model("spin"))
    reference_params = default_params(
        spacing=args.spacing, delta=args.delta, n_qubits=math.ceil(pipe.params.n_qubits * 4 / 3)
    )
    reference = minimize_variational(Pipeline(reference_params).model("spin"), n_max=1)
    labels = classify_droplet_states(decomp, variational, reference=reference)
    print(f"optimal relative length: {variational.length:.3f}")
    print(f"droplet-like states (1-based): {labels.indices.tolist()}")
    print(f"mode assignment: {labels.mode_numbers.tolist()}")

    write_pair_corr_csv(
        pair_correlation(decomp.state(0), pipe.basis), os.path.join(args.out, "pair_corr.csv")
    )
    print(f"wrote {args.out}/spectrum.csv, pair_corr.csv")


if __name__ == "__main__":
    main()
