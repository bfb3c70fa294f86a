"""Interactive demo: be the crowd yourself (the Section 6.2 UI, in text).

OASSIS's QueueManager hands out one question at a time; you answer on the
paper's five-point frequency scale (never / rarely / sometimes / often /
very often), can *specify* more detail implicitly by answering the follow-up
questions the traversal generates, and can prune irrelevant values by
name, as the question shows them (``prune Ball Game``).  As answers
accumulate, the confirmed recommendations update live.

Run interactively::

    python examples/interactive_demo.py

or let a simulated member answer automatically::

    python examples/interactive_demo.py --auto
"""

import argparse

from repro import EngineConfig, OassisEngine
from repro.crowd.questions import FREQUENCY_SCALE, frequency_to_support
from repro.datasets import running_example
from repro.nlg import render_assignment


def answer_interactively(text, vocab):
    """Read one answer: ("support", s), ("prune", term) or ("quit", None)."""
    print()
    print(f"Q: {text}")
    options = ", ".join(label for label, _ in FREQUENCY_SCALE)
    print(f"   ({options}; or 'prune <Value>' / 'quit')")
    while True:
        raw = input("> ").strip()
        label = raw.lower()
        if label in dict(FREQUENCY_SCALE):
            return ("support", frequency_to_support(label))
        if label.startswith("prune "):
            # the value keeps its case: vocabulary names are case-sensitive
            name = raw[len("prune "):].strip()
            if vocab.has_element(name):
                return ("prune", vocab.element(name))
            if vocab.has_relation(name):
                return ("prune", vocab.relation(name))
            print(f"unknown value {name!r}; type it as the ontology names it, "
                  "e.g. 'prune Ball Game'")
            continue
        if label == "quit":
            return ("quit", None)
        print("please answer with one of the frequency labels")


def main(argv=None):
    """Run one session; returns its QueueManager."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--auto", action="store_true",
                        help="answer automatically from Table 3's u1+u2 average")
    parser.add_argument("--max-questions", type=int, default=40)
    args = parser.parse_args(argv)

    ontology = running_example.build_ontology()
    engine = OassisEngine(
        ontology, config=EngineConfig(max_values_per_var=2, max_more_facts=1)
    )
    qm = engine.queue_manager(
        running_example.FRAGMENT_QUERY,
        sample_size=1,
        more_pool=running_example.more_pool(),
    )

    databases = running_example.build_personal_databases()
    vocab = ontology.vocabulary

    def auto_answer(facts):
        supports = [db.support(facts, vocab) for db in databases.values()]
        return sum(supports) / len(supports)

    print("=== OASSIS interactive crowd session ===")
    print("Query: activities at child-friendly NYC attractions (Figure 2,")
    print("restaurant part omitted for brevity)")

    member_id = "you"
    answered = 0
    while answered < args.max_questions:
        batch = qm.next_batch(member_id)
        if not batch:
            print("\nNo more questions — everything relevant is classified!")
            break
        (node,) = batch
        facts = qm.space.instantiate(node)
        text = engine.templates.concrete_question(facts)
        if args.auto:
            support = auto_answer(facts)
            print(f"Q: {text}")
            print(f"   (auto-answer: {support:.2f})")
            qm.submit_support(member_id, support, node)
        else:
            kind, value = answer_interactively(text, vocab)
            if kind == "quit":
                break
            if kind == "prune":
                qm.submit_prune(member_id, value, node)
                print(f"   pruned everything involving {value.name!r}")
            else:
                qm.submit_support(member_id, value, node)
        answered += 1
        msps = qm.current_msps()
        if msps:
            print(f"   confirmed so far: "
                  f"{'; '.join(render_assignment(m) for m in msps)}")

    print()
    print(f"Session over after {qm.questions_asked} answers.")
    print("Final recommendations:")
    for msp in qm.current_msps():
        print(f"  * {render_assignment(msp)}")
    return qm


if __name__ == "__main__":
    main()
