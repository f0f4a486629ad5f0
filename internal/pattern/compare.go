package pattern

import "strconv"

// Compare evaluates "left op right" with XML value semantics: if both
// operands parse as numbers the comparison is numeric; if both are
// non-numeric it is a lexicographic string comparison; a mixed pair only
// supports (in)equality — ordering a number against a non-number is false,
// which also makes comparisons against the aggregate "empty" flag fail,
// as the paper's Aggregate-Function semantics require. This is the
// comparison used by content predicates, value joins and order-by keys.
func Compare(op Cmp, left, right string) bool {
	lf, lnum := ParseNumber(left)
	rf, rnum := ParseNumber(right)
	switch {
	case lnum && rnum && (lf != lf || rf != rf):
		return op == NE // NaN is unordered: unequal to everything
	case lnum && rnum:
		return compareOrd(op, cmpFloat(lf, rf))
	case lnum || rnum: // mixed types
		switch op {
		case EQ:
			return false
		case NE:
			return true
		default:
			return false
		}
	}
	switch {
	case left == right:
		return compareOrd(op, 0)
	case left < right:
		return compareOrd(op, -1)
	default:
		return compareOrd(op, 1)
	}
}

// ParseNumber reports whether s is a number, and its value, by
// strconv.ParseFloat. A string whose first byte cannot start a float — not
// a digit, sign, point, or the first letter of "inf" or "NaN" — is rejected
// without calling ParseFloat, which would allocate an error for it: content
// values are mostly words, and every comparison and sort key parses them.
func ParseNumber(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// Flip returns the comparison with its operand sides exchanged, so that
// "a op b" holds exactly when "b op.Flip() a" holds.
func (c Cmp) Flip() Cmp {
	switch c {
	case LT:
		return GT
	case LE:
		return GE
	case GT:
		return LT
	case GE:
		return LE
	default: // EQ, NE are symmetric
		return c
	}
}

// Eval applies the predicate to a content value.
func (p *Predicate) Eval(content string) bool {
	return Compare(p.Op, content, p.Value)
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareOrd(op Cmp, ord int) bool {
	switch op {
	case EQ:
		return ord == 0
	case NE:
		return ord != 0
	case LT:
		return ord < 0
	case LE:
		return ord <= 0
	case GT:
		return ord > 0
	default:
		return ord >= 0
	}
}
