"""The textual definition-file format."""

import pytest

from pdes.core import SchemaError, atom
from pdes.deffile import parse_definition
from pdes.lang import ParseError

GOOD = """
# comment
peer P1 : R1/2
peer P2 : R2/2
trust P1 less P2
preorder delta
instance P1 : R1(a,2)
instance P2 : R2(d,5)
dec P1 P2 : forall x,y : R2(x,y) -> R1(x,y)
query P1 : R1(x,y)
"""


class TestParsing:
    def test_full_definition(self):
        d = parse_definition(GOOD)
        assert d.system.peers == {"P1", "P2"}
        assert d.system.preorder == "delta"
        assert d.instance.of("P1").atoms == {atom("R1", "a", "2")}
        assert d.queries["P1"].free_vars == ("x", "y")

    def test_instance_lines_accumulate(self):
        d = parse_definition(
            "peer P : R/1\ninstance P : R(a)\ninstance P : R(b)\n")
        assert d.instance.of("P").atoms == {atom("R", "a"), atom("R", "b")}

    def test_default_preorder_is_null(self):
        d = parse_definition("peer P : R/1\n")
        assert d.system.preorder == "null"

    def test_comments_and_blank_lines_ignored(self):
        d = parse_definition("\n# only a comment\npeer P : R/1  # trailing\n")
        assert d.system.peers == {"P"}


class TestErrors:
    def error(self, text):
        with pytest.raises(ParseError) as e:
            parse_definition(text)
        return str(e.value)

    def test_unknown_keyword_reports_line(self):
        assert "line 2" in self.error("peer P : R/1\nbogus stuff\n")

    def test_duplicate_peer(self):
        assert "twice" in self.error("peer P : R/1\npeer P : S/1\n")

    def test_predicate_declared_twice_in_one_peer_line(self):
        # the second declaration used to replace the first silently
        assert self.error("peer P1 : R/1, R/2\n") == \
            "line 1: predicate 'R' declared twice"

    def test_instance_for_undeclared_peer(self):
        self.error("peer P : R/1\ninstance Q : R(a)\n")

    def test_bad_arity_declaration(self):
        self.error("peer P : R\n")

    def test_bad_preorder(self):
        self.error("peer P : R/1\npreorder fancy\n")

    def test_repeated_preorder(self):
        assert self.error("peer P : R/1\npreorder null\npreorder delta\n") \
            == "line 3: preorder given twice"

    def test_second_query_for_one_peer(self):
        assert self.error("peer P : R/1\nquery P : R(x)\nquery P : R(y)\n") \
            == "line 3: second query for peer 'P'"

    def test_wrong_arity_atom(self):
        self.error("peer P : R/2\ninstance P : R(a)\n")

    def test_malformed_trust(self):
        self.error("peer P : R/1\ntrust P much Q\n")

    def test_query_for_undeclared_peer(self):
        self.error("peer P : R/1\nquery Q : R(x)\n")

    def test_no_peers(self):
        self.error("# nothing\n")

    def test_accessibility_cycle_raises_schema_error(self):
        with pytest.raises(SchemaError):
            parse_definition(
                "peer P : R/1\npeer Q : S/1\n"
                "trust P less Q\ntrust Q less P\n"
                "dec P Q : forall x : S(x) -> R(x)\n"
                "dec Q P : forall x : R(x) -> S(x)\n")

    # A lax grammar would read each line below as something else: a
    # constant ':', ')', '->', '(', 'a b', 'a=b' or '"q"', a variable ',',
    # or a list with its trailing comma dropped.
    @pytest.mark.parametrize("line", [
        "query P : R(:)",
        "query P : R(a,->)",
        "query P : R(x), x = (",
        "dec P P : forall x : R(x) -> R())",
        "dec P P : forall x,, : R(x) -> R(x)",
        "dec P P : forall ( : R(x) -> R(x)",
        "instance P : R(a b)",
        "instance P : R(a=b)",
        'instance P : R("q")',
        "peer P2 : S/1,",
        "instance P : R(a),",
    ])
    def test_malformed_line_is_refused_with_its_number(self, line):
        assert self.error("peer P : R/1\n%s\n" % line).startswith("line 2: ")

    # The full texts, column included, that the tokenizer and the atom
    # rule give for malformed lists and atoms.
    @pytest.mark.parametrize("line,msg", [
        ("instance P : R(a b)", "expected ',', found 'b'"),
        ("instance P : R(a,)", "expected a word, found ')'"),
        ("instance P : R(,a)", "expected a word, found ','"),
        ("instance P : R(a", "unexpected end of input"),
        ("instance P : R(a))", "expected ',', found ')'"),
        ("instance P : R a", "expected '(', found 'a'"),
        ("instance P : R(", "unexpected end of input"),
        ("instance P : R", "unexpected end of input"),
        ("instance P : R(a)R(b)", "expected ',', found 'R'"),
        ("instance P : (a)", "expected a word, found '('"),
        ("instance P : R(a),", "unexpected end of input"),
        ("query P : R(a,->)", "expected a word, found '->'"),
        ("query P : R(x), S(y z)", "expected ',', found 'z'"),
        ("dec P P : forall x : R(x) -> R(x,)", "expected a word, found ')'"),
        ("instance P : R(a;b)", "bad character at column 17 in %r: ';'"),
        ("instance P : R(é)", "bad character at column 16 in %r: 'é'"),
        ("instance P : R(aé)", "bad character at column 17 in %r: 'é'"),
        ("instance P : R(a​b)",
         "bad character at column 17 in %r: '\\u200b'"),
        ("instance P : R(a\xa0b)", "expected ',', found 'b'"),
        ("instance P :\tR(a)  ;", "bad character at column 20 in %r: ';'"),
    ])
    def test_malformed_line_gives_its_exact_error(self, line, msg):
        where = " in %r" % line
        text = msg % line if "%r" in msg else msg + where
        assert self.error("peer P : R/1\n%s\n" % line) == "line 2: " + text

    def test_builtin_in_an_instance_is_refused(self):
        # the peer line already refuses the name, so no instance reaches it
        assert self.error("peer P : isnull/1\ninstance P : isnull(a)\n") \
            .startswith("line 1: 'isnull' is a builtin, not a predicate")
        assert self.error("peer P : R/1\ninstance P : isnull(a)\n") \
            .startswith("line 2: expected a fact, found 'isnull'")

    @pytest.mark.parametrize("word", ["false", "isnull", "isnotnull"])
    def test_builtin_word_is_no_predicate_name(self, word):
        assert self.error("peer P : R/1, %s/1\n" % word) == \
            "line 1: %r is a builtin, not a predicate" % word

    @pytest.mark.parametrize("line,msg", [
        ("instance P : R(a)", "'R' has arity 2, not 1, in R(a)"),
        ("instance P : R(a,b), S(c)", "unknown predicate 'S' in S(c)")])
    def test_instance_atom_is_checked_on_its_line(self, line, msg):
        assert self.error("peer P : R/2\n%s\n" % line) == "line 2: " + msg


class TestArity0:
    TEXT = ("peer P : F/0, G/0\n"
            "peer Q : S/1\n"
            "trust P less Q\n"
            "dec P Q : forall x : S(x) -> F()\n"
            "instance P : G()\n"
            "query P : F(), G()\n")

    def test_atoms_without_arguments_in_every_line_kind(self):
        d = parse_definition(self.TEXT)
        assert d.instance.of("P").atoms == {atom("G")}
        (c,) = d.system.sigma[("P", "Q")]
        assert str(c) == "forall x: S(x) -> F()"
        assert str(d.queries["P"]) == "F(), G()"

    def test_peer_with_no_predicates(self):
        d = parse_definition("peer P :\n")
        assert d.system.schemas["P"].arities == {}
