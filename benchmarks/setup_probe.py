"""Set-up probe: import the CLI, then build the validated ExperimentConfig.

Usage: python setup_probe.py CONFIG_JSON

The benchmark times this process from launch to exit as ``setup_s``: the
interpreter, the imports a CLI run makes, config parsing, and
``markovize`` with its primitivity check and stationary solve.
"""

import json
import sys

import markov_holdout.cli  # noqa: F401  (the imports a CLI run makes)
from markov_holdout.config import experiment_from_dict

if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        experiment_from_dict(json.load(fh))
