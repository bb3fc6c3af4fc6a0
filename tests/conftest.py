"""Load every expsys module before any test runs.

Hypothesis mixes the literal constants of each loaded local module into its
draws, so a `derandomize=True` test draws different examples depending on
which modules earlier tests imported.  Importing the CLI loads the whole
package up front, so every test selection draws the examples of the full
suite.
"""

import expsys.cli  # noqa: F401
