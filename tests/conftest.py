import sys
from pathlib import Path

from hypothesis import settings

# make the oracle helpers importable regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).parent))

# property tests replay the same examples on every run and never fail on
# timing, which varies widely on small shared hosts
settings.register_profile("protostream", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("protostream")
