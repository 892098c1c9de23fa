"""The two artifact formats: indented JSON, and CSV under a config-hash line.

Every CSV the package writes (cohort, outputs, features and ROC) goes through
write_csv, and every line, the hash line included, ends in a bare ``\\n``.
"""

from __future__ import annotations

import csv
import json

from .errors import ConfigurationError


def open_artifact(path, mode="w", newline=None):
    """open(path, mode, newline=newline), raising a ConfigurationError for an OSError."""
    try:
        return open(path, mode, newline=newline)
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot write: {exc.strerror}") from None


def write_json(path, payload) -> None:
    """payload as JSON, indented by 2, keys sorted, newline-terminated."""
    with open_artifact(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows, config_hash: str = "") -> None:
    """``# config_hash=<config_hash>`` (when given), the header, then rows.

    Fields go through ``csv.writer`` as they are, so Python floats print as
    their shortest round-trip ``repr``; pass ``tolist()`` rows, not numpy
    scalars.
    """
    with open_artifact(path, newline="") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
