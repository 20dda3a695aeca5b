"""Write perfbench/expected.json, the reference reports for the oracle-sparse
instances that do not depend on the seed.

The naive scan needs tens of seconds for these, so runs read them from the
file; a report missing from it is computed during the run instead.

    python3 perfbench/make_expected.py
"""

import json

from workloads import EXPECTED, fixed_reports, load_domcover

if __name__ == "__main__":
    load_domcover()
    EXPECTED.write_text(json.dumps(fixed_reports(), indent=1, sort_keys=True) + "\n")
