"""PolicySmith reproduction.

A from-scratch Python implementation of *"Man-Made Heuristics Are Dead.
Long Live Code Generators!"* (HotNets '25): the PolicySmith framework for
LLM-driven synthesis of instance-optimal systems policies, plus every
substrate the paper's two case studies (web caching, congestion control)
depend on.

Package map
-----------

``repro.core``         the framework: Template / Generator / Checker /
                        Evaluator / evolutionary search / archive / contexts
``repro.dsl``          the heuristic mini-language candidates are written in
``repro.llm``          LLM client protocol + the offline synthetic generator
``repro.cache``        cache simulator, 16 eviction policies, the priority
                        Template, Table-1 features, oracles
``repro.traces``       synthetic CloudPhysics-like / MSR-like corpora
``repro.netsim``       discrete-event network simulator (link, flows)
``repro.cc``           congestion-control Template, kernel-constraint
                        checker, baselines, evaluator
``repro.experiments``  one module per paper table/figure, each registered as
                        a named spec + reducer in the experiment registry
``repro.cli``          the unified ``python -m repro`` frontend (run / sweep
                        / resume / experiments list / report)

Start with ``examples/quickstart.py``, ``python -m repro experiments list``,
or README.md.
"""

__version__ = "1.1.0"

__all__ = ["__version__"]
