"""Record the scipy values that ``shellrig.norms`` builds odd Gauss-Legendre rules from.

    python scripts/record_legendre_beta.py

Writes ``src/shellrig/legendre_beta.json``: for b = -0.5 and 0.5,
``scipy.special.beta(a + 1, b)`` for a = 1..170 and ``scipy.special.gammaln(b)``.
cephes' ``beta`` divides Gamma values up to a = 170 and takes ``lgam`` above;
``norms._beta_half`` reads the first from this table and ports the second, so
the power series at an odd rule's centre node carries scipy's bits without
importing scipy.  JSON floats round-trip exactly, so the file holds scipy's
bits.  Run it again only to follow another scipy release; the test suite
regenerates the text in memory and requires it to equal the committed file.
"""

from __future__ import annotations

import json
from pathlib import Path

TABLE = Path(__file__).resolve().parents[1] / "src" / "shellrig" / "legendre_beta.json"
A_MAX = 170  # the last a for which cephes' beta(a + 1, +-0.5) takes its Gamma ratio


def table_text() -> str:
    """The file's text, from the scipy installed."""
    from scipy.special import beta, gammaln

    table = {str(b): {"gammaln": float(gammaln(b)), "beta": [float(beta(a + 1, b)) for a in range(1, A_MAX + 1)]}
             for b in (-0.5, 0.5)}
    return json.dumps(table, indent=1) + "\n"


def main() -> None:
    TABLE.write_text(table_text())
    print(f"wrote {TABLE}")


if __name__ == "__main__":
    main()
