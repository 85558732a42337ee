from __future__ import annotations

from pathlib import Path

import pytest

from apio.prompts import (
    GEC_TEMPLATE,
    GENERIC_TEMPLATE,
    Instruction,
    Prompt,
    PromptError,
    SIMPLIFY_TEMPLATE,
    clean_completion,
    improve_meta_prompt,
    induction_meta_prompt,
    parse_new_instruction,
    parse_prompt,
    postprocess_output,
    rephrase_meta_prompt,
)

GOLDEN = Path(__file__).parent / "data" / "golden_gec_render.txt"

KNOWN_GEC_INSTRUCTIONS = (
    "Identify and correct the grammatical error in the given sentence to improve clarity and accuracy.",
    "Generate a corrected version of the given sentence by identifying and fixing any grammatical errors while maintaining the original meaning.",
    "Given a sentence with grammatical errors, identify and correct the mistakes to produce a grammatically accurate version of the sentence.",
)


def _gec_prompt() -> Prompt:
    return Prompt(
        header="",
        instructions=tuple(Instruction(t) for t in KNOWN_GEC_INSTRUCTIONS),
        footer=GEC_TEMPLATE.footer,
    )


def test_render_matches_golden_bytes():
    rendered = _gec_prompt().render("She go home")
    assert rendered.encode("utf-8") == GOLDEN.read_bytes()


def test_render_empty_header_has_no_leading_blank():
    assert _gec_prompt().render("x").startswith("* Identify")


def test_render_with_header():
    prompt = Prompt("Follow these rules.", (Instruction("Do x."),), GENERIC_TEMPLATE.footer)
    assert prompt.render("y") == "Follow these rules.\n* Do x.\nInput: y\nOutput:"


def test_render_requires_instructions():
    with pytest.raises(PromptError, match="at least one instruction"):
        Prompt("", (), GEC_TEMPLATE.footer)


def test_render_requires_slot():
    for footer in ("no slot here", "{input_text} and {input_text}"):
        with pytest.raises(PromptError, match="exactly once"):
            Prompt("", (Instruction("Do x."),), footer)
        with pytest.raises(PromptError, match="exactly once"):
            parse_prompt(f"* Do x.\n{footer}")


def test_footer_substituted_exactly_once():
    rendered = _gec_prompt().render("She go home")
    assert rendered.endswith("Sentence: She go home\nCorrected sentence:")
    assert "{input_text}" not in rendered


def test_task_footers_are_fixed():
    assert GEC_TEMPLATE.footer == "Sentence: {input_text}\nCorrected sentence:"
    assert SIMPLIFY_TEMPLATE.footer == "Complex sentence: {input_text}\nSimple sentence:"
    assert GENERIC_TEMPLATE.footer == "Input: {input_text}\nOutput:"


def test_render_injective_on_instructions_and_input():
    seen = {}
    inputs = ["x", "y", "x y"]
    instruction_lists = [("Do a.",), ("Do b.",), ("Do a.", "Do b."), ("Do b.", "Do a.")]
    for texts in instruction_lists:
        prompt = Prompt("", tuple(Instruction(t) for t in texts), GENERIC_TEMPLATE.footer)
        for value in inputs:
            rendered = prompt.render(value)
            assert rendered not in seen, f"collision with {seen.get(rendered)}"
            seen[rendered] = (texts, value)


def test_parse_inverts_text():
    for prompt in (
        _gec_prompt(),
        Prompt("header line", (Instruction("One."), Instruction("Two.")), GENERIC_TEMPLATE.footer),
    ):
        assert parse_prompt(prompt.text()) == prompt


def test_parse_rejects_bulletless_text():
    with pytest.raises(PromptError):
        parse_prompt("just some text\nInput: {input_text}\nOutput:")


def test_parse_rejects_missing_slot():
    with pytest.raises(PromptError):
        parse_prompt("* Do x.\nno slot")


def test_instruction_invariants():
    with pytest.raises(PromptError):
        Instruction("")
    with pytest.raises(PromptError):
        Instruction("two\nlines")
    with pytest.raises(PromptError, match="line breaks"):
        Instruction("two\rlines")  # a prompt file read back would split it


def test_instruction_over_two_sentences_logged_not_rejected(caplog):
    with caplog.at_level("WARNING"):
        Instruction("One. Two. Three.")
    assert "two-sentence" in caplog.text


def test_children_of_a_prompt_do_not_log_its_long_instruction_again(caplog):
    with caplog.at_level("WARNING"):
        prompt = Prompt("", ("One. Two. Three.", "Short."), GENERIC_TEMPLATE.footer)
        assert "two-sentence" in caplog.text
        caplog.clear()
        prompt.replace_instruction(1, "Other.")
        prompt.append_instruction("More.")
        prompt.reorder([1, 0])
    assert "two-sentence" not in caplog.text


# -- meta-prompts -------------------------------------------------------------


def test_induction_meta_prompt_shape():
    """Each task's induction request, byte for byte: the task name, the
    labelled pair, then the ask."""
    ask = ("You are the prompt engineer. Could you give an instruction for this example? "
           "Do not mention any part of the considered texts.")
    expected = {
        GEC_TEMPLATE: "Below is an example of an input-output pair for the Grammatical Error Correction task.\n\n"
                      "Sentence: src text\nCorrected sentence: tgt text\n\n",
        SIMPLIFY_TEMPLATE: "Below is an example of an input-output pair for the Text Simplification task.\n\n"
                           "Complex sentence: src text\nSimple sentence: tgt text\n\n",
        GENERIC_TEMPLATE: "Below is an example of an input-output pair for the Text Rewriting task.\n\n"
                          "Input: src text\nOutput: tgt text\n\n",
    }
    for template, head in expected.items():
        assert induction_meta_prompt(template, "src text", "tgt text") == head + ask


def test_improve_meta_prompt_shape():
    meta = improve_meta_prompt(
        GEC_TEMPLATE,
        ["First rule.", "Second rule."],
        [("in1", "out1", "gold1", 3), ("in2", "out2", "gold2", 1)],
    )
    assert "improvement of the Grammatical Error Correction System" in meta
    assert "* First rule.\n* Second rule." in meta
    assert "Input 1: in1" in meta
    assert "System's Output 2: out2" in meta
    assert "Gold Output 1: gold1" in meta
    assert "Error 1 between System's Output 1 and Gold Output 1 for given Input 1: 3 different words." in meta
    assert "Mean error for examples 1-2:\n2 words." in meta
    assert "<new_instruction> and </new_instruction>" in meta
    assert "Prioritize fixing cases which have larger error" in meta


def test_improve_meta_prompt_fractional_mean():
    meta = improve_meta_prompt(GEC_TEMPLATE, ["r."], [("a", "b", "c", 1), ("d", "e", "f", 2)])
    assert "Mean error for examples 1-2:\n1.5 words." in meta


def test_rephrase_meta_prompt_shape():
    meta = rephrase_meta_prompt("Keep it short.")
    assert meta.startswith("Generate a variation of the following instruction")
    assert "Instruction:Keep it short.\nUpdated instruction:" in meta


def test_parse_new_instruction():
    text = "noise <new_instruction>Keep punctuation unchanged.</new_instruction> trailing"
    assert parse_new_instruction(text) == "Keep punctuation unchanged."


def test_parse_new_instruction_collapses_newlines():
    text = "<new_instruction>Keep punctuation\nunchanged.</new_instruction>"
    assert parse_new_instruction(text) == "Keep punctuation unchanged."


def test_parse_new_instruction_missing_or_empty_tag():
    with pytest.raises(PromptError):
        parse_new_instruction("no tags at all")
    with pytest.raises(PromptError):
        parse_new_instruction("<new_instruction>   </new_instruction>")


# -- cleanup ------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("  plain text  ", "plain text"),
        ('"quoted text"', "quoted text"),
        ("'single quoted'", "single quoted"),
        ("“curly quotes”", "curly quotes"),
        ("* bulleted", "bulleted"),
        ("- dashed", "dashed"),
        ("Instruction: labelled", "labelled"),
        ("Updated instruction: labelled", "labelled"),
        ('"Instruction: * nested decorations"', "nested decorations"),
        ("already clean.", "already clean."),
    ],
)
def test_clean_completion_table(raw, expected):
    assert clean_completion(raw) == expected


def test_clean_completion_collapse_newlines():
    assert clean_completion("a\nb") == "a b"
    assert clean_completion("a\n\n  b") == "a b"
    assert clean_completion('"Fix it\r\n  now."') == "Fix it now."
    assert clean_completion("Keep the verb.\rKeep the rest.") == "Keep the verb. Keep the rest."


@pytest.mark.parametrize("raw", ["", "  \n ", '""', '"\n"', "'* '", "Instruction:", "'- '"])
def test_clean_completion_with_nothing_left_raises(raw):
    with pytest.raises(PromptError, match="empty after cleanup"):
        clean_completion(raw)


def test_postprocess_output():
    assert postprocess_output("  fixed text \n") == "fixed text"
    assert postprocess_output("first paragraph\n\nsecond paragraph") == "first paragraph"
    # a single line break left is a space, so the output is one line
    assert postprocess_output("keep\nsingle newline") == "keep single newline"
    # \r\n and a bare \r break lines as \n does
    assert postprocess_output("Fixed.\r\n\r\nExplanation") == "Fixed."
    assert postprocess_output("Fixed.\r\rExplanation") == "Fixed."
    assert postprocess_output("one\r\ntwo\rthree") == "one two three"
    # a line holding only spaces or a tab is a blank line too
    assert postprocess_output("Fixed.\n \nExplanation: typo") == "Fixed."
    assert postprocess_output("Fixed.\r\n\t \r\nExplanation") == "Fixed."
