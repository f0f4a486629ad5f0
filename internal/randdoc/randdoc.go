// Package randdoc generates small random XML documents for the
// generated-input tests: the matcher's reference test (FuzzMatch) and the
// operator oracle (FuzzOperators) draw their documents from here.
package randdoc

import (
	"fmt"
	"math/rand"

	"tlc/internal/xmltree"
)

// Name is the document name every generated document carries.
const Name = "rand.xml"

// Generate builds a random document over a tiny tag alphabet (a, b, c)
// with repeated and missing children at every level and a one-digit text
// value on about half the elements; the top two levels always branch, so
// most patterns find several matches to order. It has at most maxNodes
// elements.
func Generate(rng *rand.Rand, maxNodes int) *xmltree.Document {
	b := xmltree.NewBuilder(Name)
	b.OpenElement("r")
	n := 1
	var grow func(depth int)
	grow = func(depth int) {
		if depth > 4 {
			return
		}
		kids := rng.Intn(4)
		if depth < 2 {
			kids += 2
		}
		for i := 0; i < kids && n < maxNodes; i++ {
			tag := string(rune('a' + rng.Intn(3)))
			n++
			b.OpenElement(tag)
			if rng.Intn(2) == 0 {
				b.TextNode(fmt.Sprint(rng.Intn(5)))
			}
			grow(depth + 1)
			b.CloseElement()
		}
	}
	grow(0)
	b.CloseElement()
	d, err := b.Done()
	if err != nil {
		panic(err)
	}
	return d
}
