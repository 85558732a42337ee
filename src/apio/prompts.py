"""Structured instruction-list prompts and the meta-prompts that edit them.

A prompt is a header (usually empty), an ordered list of single-paragraph
instructions rendered as ``* `` bullets, and a task footer carrying the
``{input_text}`` slot. The meta-prompt builders produce the requests used
to induce a new instruction from an example pair, to propose an
instruction that reduces observed errors, and to rephrase an instruction.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

log = logging.getLogger(__name__)

INPUT_SLOT = "{input_text}"


class PromptError(ValueError):
    """Prompt structure violates its contract."""


class Instruction(str):
    """One instruction: a non-empty line of text. A text of more than two
    sentences is logged, once, when its ``Instruction`` is made."""

    __slots__ = ()

    def __new__(cls, text: str) -> Instruction:
        if type(text) is cls:  # checked when it was made
            return text
        if not isinstance(text, str) or not text.strip():
            raise PromptError("instruction text must be a non-empty string")
        if "\n" in text or "\r" in text:
            raise PromptError("instruction text must not contain line breaks")
        if len(re.findall(r"[.!?](?:\s|$)", text)) > 2:
            log.warning("instruction exceeds the two-sentence target: %r", text)
        return super().__new__(cls, text)


@dataclass(frozen=True)
class Prompt:
    """A prompt, which is also its JSON form: ``instructions`` may be given
    as plain strings, and each is made an ``Instruction``."""

    header: str
    instructions: tuple[Instruction, ...]
    footer: str

    def __post_init__(self):
        if not isinstance(self.instructions, (tuple, list)) or not self.instructions:
            raise PromptError("a prompt needs a list of at least one instruction")
        object.__setattr__(self, "instructions", tuple(map(Instruction, self.instructions)))
        if type(self.footer) is not str or self.footer.count(INPUT_SLOT) != 1:
            raise PromptError(f"prompt footer must contain the {INPUT_SLOT!r} slot exactly once")

    def text(self) -> str:
        """Prompt file form: the render with the input slot left in place."""
        return self._assemble(self.footer)

    def render(self, input_text: str) -> str:
        return self._assemble(self.footer.replace(INPUT_SLOT, input_text))

    def _assemble(self, footer: str) -> str:
        lines = []
        if self.header:
            lines.append(self.header)
        lines.extend(f"* {ins}" for ins in self.instructions)
        lines.append(footer)
        return "\n".join(lines)

    def replace_instruction(self, index: int, text: str) -> "Prompt":
        instructions = list(self.instructions)
        instructions[index] = text
        return Prompt(self.header, tuple(instructions), self.footer)

    def append_instruction(self, text: str) -> "Prompt":
        return Prompt(self.header, (*self.instructions, text), self.footer)

    def reorder(self, order: list[int]) -> "Prompt":
        return Prompt(self.header, tuple(self.instructions[i] for i in order), self.footer)


def parse_prompt(text: str) -> Prompt:
    """Invert ``Prompt.text()``: bullets bounded by header and footer lines."""
    lines = text.split("\n")
    bullet_idx = [i for i, line in enumerate(lines) if line.startswith("* ")]
    if not bullet_idx:
        raise PromptError("prompt text has no '* ' instruction lines")
    first, last = bullet_idx[0], bullet_idx[-1]
    if bullet_idx != list(range(first, last + 1)):
        raise PromptError("instruction bullets must be contiguous")
    header = "\n".join(lines[:first])
    footer = "\n".join(lines[last + 1:])
    instructions = tuple(line[2:] for line in lines[first: last + 1])
    return Prompt(header, instructions, footer)


# ---------------------------------------------------------------------------
# task templates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskTemplate:
    task_name: str
    input_label: str
    output_label: str
    zero_shot: str  # the instruction of the zero- and few-shot baselines

    def pair(self, source: str, target: str) -> str:
        """An (input, output) pair as two labelled lines."""
        return f"{self.input_label}: {source}\n{self.output_label}: {target}"

    @property
    def footer(self) -> str:
        """The pair with the input slot as its input, closed by the output label."""
        return self.pair(INPUT_SLOT, "").rstrip(" ")

    def baseline_prompt(self, instruction: str, exemplars: list[tuple[str, str]]) -> str:
        """A baseline's prompt, slot in place: ``instruction``, each (input,
        output) exemplar as a labelled pair, the footer, a blank line apart."""
        return "\n\n".join([instruction, *(self.pair(*shot) for shot in exemplars), self.footer])


GEC_TEMPLATE = TaskTemplate(
    task_name="Grammatical Error Correction",
    input_label="Sentence",
    output_label="Corrected sentence",
    zero_shot="Correct all grammatical errors in the given sentence. Output only the corrected sentence; "
    "if the sentence is already correct, output it unchanged.",
)

SIMPLIFY_TEMPLATE = TaskTemplate(
    task_name="Text Simplification",
    input_label="Complex sentence",
    output_label="Simple sentence",
    zero_shot="Rewrite the given complex sentence as simpler, easier-to-understand text while preserving "
    "its original meaning. Output only the simplified text.",
)

GENERIC_TEMPLATE = TaskTemplate(
    task_name="Text Rewriting",
    input_label="Input",
    output_label="Output",
    zero_shot="Rewrite the given input according to the task demonstrated by the data. "
    "Output only the rewritten text.",
)

TASK_TEMPLATES = {
    "gec": GEC_TEMPLATE,
    "simplify": SIMPLIFY_TEMPLATE,
    "generic": GENERIC_TEMPLATE,
}


# ---------------------------------------------------------------------------
# meta-prompts
# ---------------------------------------------------------------------------

_INDUCTION_META = """Below is an example of an input-output pair for the {task_name} task.

{pair}

You are the prompt engineer. Could you give an instruction for this example? Do not mention any part of the considered texts."""

_IMPROVE_HEAD = """You are a super-talented prompt engineer. You are working on improvement of the {task_name} System

The System has these Instructions:
{instructions}

Below are the examples of System's work:
"""

_IMPROVE_EXAMPLE = """Input {i}: {input_text}
System's Output {i}: {output_text}
Gold Output {i}: {gold_output_text}
Error {i} between System's Output {i} and Gold Output {i} for given Input {i}: {num} different words.
"""

_IMPROVE_TAIL = """Mean error for examples 1-{last}:
{ave_num} words.

Suggest new instruction to augment existing instructions forcing the System's Outputs to be exactly the same as Gold Outputs for the given System's Inputs. You need to minimize Errors between System's Outputs and Gold Outputs. Put new instruction between <new_instruction> and </new_instruction> tags. Do not use no more than two sentences. Do not mention Gold Output. Do not use "newline" symbols in your answer. Prioritize fixing cases which have larger error (which have more different words)."""

_REPHRASE_META = """Generate a variation of the following instruction while keeping the semantic meaning, updated instruction must be no more than two sentences

Instruction:{instruction}
Updated instruction:"""

NEW_INSTRUCTION_RE = re.compile(r"<new_instruction>(.*?)</new_instruction>", re.DOTALL)


def induction_meta_prompt(template: TaskTemplate, source: str, target: str) -> str:
    return _INDUCTION_META.format(task_name=template.task_name, pair=template.pair(source, target))


def improve_meta_prompt(
    template: TaskTemplate,
    instructions: tuple[str, ...],
    examples: list[tuple[str, str, str, int]],
) -> str:
    """Meta-prompt asking for one new instruction given observed errors.

    ``examples`` holds (input, system output, gold output, error) rows.
    """
    if not examples:
        raise ValueError("improve meta-prompt needs at least one example")
    head = _IMPROVE_HEAD.format(
        task_name=template.task_name,
        instructions="\n".join(f"* {text}" for text in instructions),
    )
    body = "\n".join(
        _IMPROVE_EXAMPLE.format(i=i, input_text=src, output_text=out, gold_output_text=gold, num=num)
        for i, (src, out, gold, num) in enumerate(examples, start=1)
    )
    mean_error = sum(num for *_, num in examples) / len(examples)
    tail = _IMPROVE_TAIL.format(last=len(examples), ave_num=f"{mean_error:g}")
    return head + body + "\n" + tail


def rephrase_meta_prompt(instruction_text: str) -> str:
    return _REPHRASE_META.format(instruction=instruction_text)


def parse_new_instruction(completion: str) -> str:
    """Extract the tagged instruction from an improve completion.

    Raises ``PromptError`` when the tag pair is missing; the tagged text
    is cleaned by ``clean_completion``.
    """
    found = NEW_INSTRUCTION_RE.search(completion)
    if not found:
        raise PromptError("completion lacks a <new_instruction> tag pair")
    return clean_completion(found.group(1))


def postprocess_output(text: str) -> str:
    r"""Normalize an inference completion to one line: make each ``\r\n``
    or ``\r`` a ``\n``, trim whitespace, keep text up to the first blank
    line (one holding only whitespace), and make each line break left a
    space."""
    s = re.sub(r"\r\n?", "\n", text).strip()
    s = re.split(r"\n[^\S\n]*\n", s, maxsplit=1)[0].strip()
    return s.replace("\n", " ")


# ---------------------------------------------------------------------------
# completion cleanup
# ---------------------------------------------------------------------------

_QUOTE_PAIRS = [('"', '"'), ("'", "'"), ("“", "”"), ("‘", "’"), ("`", "`")]
_BULLET_PREFIXES = ("* ", "- ", "• ")
_LABEL_RE = re.compile(r"^(?:new |updated )?instruction\s*:\s*", re.IGNORECASE)


def clean_completion(text: str) -> str:
    r"""The one line of instruction text in an LLM's answer: the induce,
    improve and rephrase answers alike.

    Line breaks (``\n``, ``\r\n`` or ``\r``) collapse to single spaces,
    then these decorations are stripped until stable: surrounding
    whitespace, matching quote pairs, leading bullet markers, and leading
    "Instruction:"-style echoes.
    Raises ``PromptError`` when nothing is left.
    """
    s = re.sub(r"\s*[\r\n]+\s*", " ", text.strip())
    while True:
        before = s
        s = s.strip()
        for open_q, close_q in _QUOTE_PAIRS:
            if len(s) >= 2 and s.startswith(open_q) and s.endswith(close_q):
                s = s[1:-1]
        for prefix in _BULLET_PREFIXES:
            if s.startswith(prefix):
                s = s[len(prefix):]
        s = _LABEL_RE.sub("", s)
        if s == before:
            if not s:
                raise PromptError("instruction text is empty after cleanup")
            return s
