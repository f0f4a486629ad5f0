package pattern

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// q1SelectTree builds the APT of Select 1 in Figure 7:
// doc_root//person with children @id and age>25.
func q1SelectTree() *Tree {
	root := NewDocRoot(2, "auction.xml")
	person := root.Add(NewTagNode(3, "person"), Descendant, One)
	person.Add(NewTagNode(7, "@id"), Child, One)
	age := NewTagNode(10, "age")
	age.Pred = &Predicate{Op: GT, Value: "25"}
	person.Add(age, Child, One)
	return &Tree{Root: root}
}

func TestValidateOK(t *testing.T) {
	if err := q1SelectTree().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]*Tree{
		"nil root":     {},
		"dup lcl":      {Root: func() *Node { r := NewTagNode(1, "a"); r.Add(NewTagNode(1, "b"), Child, One); return r }()},
		"empty tag":    {Root: NewTagNode(1, "")},
		"empty doc":    {Root: NewDocRoot(1, "")},
		"lc not root":  {Root: func() *Node { r := NewTagNode(1, "a"); r.Add(NewLCAnchor(2, 5), Child, One); return r }()},
		"lc bad class": {Root: NewLCAnchor(1, 0)},
		"negative lcl": {Root: NewTagNode(-1, "a")},
	}
	for name, tree := range cases {
		if err := tree.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", name)
		}
	}
}

func TestNodesAndFind(t *testing.T) {
	tr := q1SelectTree()
	nodes := tr.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("Nodes len = %d, want 4", len(nodes))
	}
	if n := tr.FindLCL(10); n == nil || n.Tag != "age" {
		t.Errorf("FindLCL(10) = %+v", n)
	}
	if tr.FindLCL(99) != nil {
		t.Error("FindLCL(99) found a node")
	}
}

func TestString(t *testing.T) {
	s := q1SelectTree().String()
	for _, want := range []string{"doc_root(auction.xml)", "//person [3]", "/age>25 [10]", "/@id [7]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestStringAnnotations(t *testing.T) {
	root := NewTagNode(1, "open_auction")
	root.Add(NewTagNode(2, "bidder"), Child, ZeroOrMore)
	root.Add(NewTagNode(3, "quantity"), Child, ZeroOrOne)
	s := (&Tree{Root: root}).String()
	if !strings.Contains(s, "{*}") || !strings.Contains(s, "{?}") {
		t.Errorf("annotations missing:\n%s", s)
	}
}

func TestMSpecHelpers(t *testing.T) {
	cases := []struct {
		m        MSpec
		nested   bool
		optional bool
		str      string
	}{
		{One, false, false, "-"},
		{ZeroOrOne, false, true, "?"},
		{OneOrMore, true, false, "+"},
		{ZeroOrMore, true, true, "*"},
	}
	for _, c := range cases {
		if c.m.Nested() != c.nested || c.m.Optional() != c.optional || c.m.String() != c.str {
			t.Errorf("MSpec %v: nested=%v optional=%v str=%q", c.m, c.m.Nested(), c.m.Optional(), c.m.String())
		}
	}
}

func TestCompareNumeric(t *testing.T) {
	cases := []struct {
		op   Cmp
		l, r string
		want bool
	}{
		{GT, "30", "25", true},
		{GT, "9", "25", false}, // numeric, not lexicographic
		{LT, "2.5", "10", true},
		{EQ, "5.0", "5", true}, // numeric equality
		{GE, "25", "25", true},
		{NE, "1", "2", true},
		{LE, "3", "2", false},
	}
	for _, c := range cases {
		if got := Compare(c.op, c.l, c.r); got != c.want {
			t.Errorf("Compare(%v, %q, %q) = %v, want %v", c.op, c.l, c.r, got, c.want)
		}
	}
}

func TestCompareString(t *testing.T) {
	cases := []struct {
		op   Cmp
		l, r string
		want bool
	}{
		{EQ, "person0", "person0", true},
		{EQ, "person0", "person1", false},
		{LT, "apple", "banana", true},
		{GT, "banana", "apple", true},
		{NE, "a", "a", false},
		{GT, "10x", "9", false}, // mixed types: ordering comparisons are false
	}
	for _, c := range cases {
		if got := Compare(c.op, c.l, c.r); got != c.want {
			t.Errorf("Compare(%v, %q, %q) = %v, want %v", c.op, c.l, c.r, got, c.want)
		}
	}
}

// TestParseNumberMatchesParseFloat holds ParseNumber to strconv.ParseFloat:
// skipping the parse on the first byte must reject only strings that
// ParseFloat rejects too.
func TestParseNumberMatchesParseFloat(t *testing.T) {
	for _, s := range []string{
		"", " 1", "1 ", "inf", "+Inf", "-infinity", "Infinity", "NaN", "nan",
		"0x1p-2", "0X1P+2", "1_0", "0b101", "-.5", ".5", "5.", "+7", "1e3",
		"1e400", "-1e400", "person0", "empty", "x1", "€5", "-", ".", "i", "n",
		"25", "0", "-0", "3.14159",
	} {
		want, err := strconv.ParseFloat(s, 64)
		got, ok := ParseNumber(s)
		if ok != (err == nil) {
			t.Errorf("ParseNumber(%q) ok = %v, ParseFloat err = %v", s, ok, err)
			continue
		}
		if ok && got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("ParseNumber(%q) = %v, ParseFloat = %v", s, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ParseNumber("person0") }); n != 0 {
		t.Errorf("ParseNumber of a word allocates %v times, want 0", n)
	}
}

func TestPredicateEval(t *testing.T) {
	p := Predicate{Op: GT, Value: "25"}
	if !p.Eval("30") || p.Eval("20") || p.Eval("25") {
		t.Error("Predicate.Eval wrong")
	}
	if p.String() != ">25" {
		t.Errorf("Predicate.String = %q", p.String())
	}
}

// TestQuickCompareTrichotomy: for numeric operands exactly one of <, =, >
// holds, and EQ/NE are complements.
func TestQuickCompareTrichotomy(t *testing.T) {
	f := func(a, b int16) bool {
		l, r := itoa(int(a)), itoa(int(b))
		lt, eq, gt := Compare(LT, l, r), Compare(EQ, l, r), Compare(GT, l, r)
		if btoi(lt)+btoi(eq)+btoi(gt) != 1 {
			return false
		}
		return Compare(NE, l, r) != eq &&
			Compare(LE, l, r) == (lt || eq) &&
			Compare(GE, l, r) == (gt || eq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int) string {
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestConstructString(t *testing.T) {
	c := NewElement("person",
		&ConstructNode{Kind: ConstructSubtree, FromLCL: 13},
		&ConstructNode{Kind: ConstructText, FromLCL: 12},
		&ConstructNode{Kind: ConstructLiteral, Literal: "hi"},
	)
	c.Attrs = append(c.Attrs, ConstructAttr{Tag: "@name", FromLCL: 12})
	c.NewLCL = 15
	s := c.String()
	for _, want := range []string{"<person name=(12).text()>", "(13)", "(12).text()", `"hi"`, "[15]"} {
		if !strings.Contains(s, want) {
			t.Errorf("construct String missing %q:\n%s", want, s)
		}
	}
}

func TestAxisString(t *testing.T) {
	if Child.String() != "/" || Descendant.String() != "//" {
		t.Error("Axis.String wrong")
	}
}
