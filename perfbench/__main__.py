import sys

from perfbench.bench import main

sys.exit(main())
