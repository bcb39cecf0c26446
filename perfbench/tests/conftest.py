import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path[:0] = [PERFBENCH, os.path.join(os.path.dirname(PERFBENCH), "src")]
