# Convenience targets for the reproduction.

.PHONY: install test bench study study-full artifacts examples clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Reduced-scale study (fast); all experiments + paper-vs-measured diff.
study:
	python -m repro.experiments

# The paper's full 20k + 20k crawl.
study-full:
	python -m repro.experiments --scale 1.0

# Regenerate artifacts/ byte-for-byte (CI job `artifacts` diffs a fresh
# copy); 99 s on a shared 2-vCPU VM (25.5 s GC, 942 MB peak RSS).
artifacts:
	python -m repro.experiments --scale 1.0 --jobs 2 --artifacts artifacts/

examples:
	python examples/quickstart.py
	python examples/adblock_evasion.py
	python examples/canvas_randomization.py
	python examples/device_entropy.py 24

clean:
	rm -rf artifacts/ .pytest_cache/ .benchmarks/
	find . -name __pycache__ -type d -exec rm -rf {} +
