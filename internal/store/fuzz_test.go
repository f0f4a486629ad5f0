package store

import (
	"strings"
	"testing"
)

// FuzzLoadDocument feeds arbitrary bytes through the XML parse + index
// pipeline. The contract under fuzzing: Load either returns an error or
// yields a document whose indexes answer lookups without panicking —
// malformed input must never take the process down (the parser used to
// panic on close-without-open before Builder.Done grew an error return).
func FuzzLoadDocument(f *testing.F) {
	f.Add("<site><person id=\"p0\"><name>Alice</name><age>30</age></person></site>")
	f.Add("<a><b>x</b><b>y</b></a>")
	f.Add("<a attr=\"v\">text<!--comment--><b/></a>")
	f.Add("<a xmlns:x=\"urn:u\"><x:b/></a>")
	f.Add("<unclosed")
	f.Add("</stray>")
	f.Add("<a></b>")
	f.Add("")
	f.Add("plain text, no markup")
	f.Add("<a>" + strings.Repeat("<b/>", 64) + "</a>")
	f.Add("<?xml version=\"1.0\"?><a/>")
	f.Fuzz(func(t *testing.T, xml string) {
		s := New()
		id, err := s.LoadXML("fuzz.xml", strings.NewReader(xml))
		if err != nil {
			return
		}
		// Accepted input must be fully queryable.
		doc := s.Doc(id)
		if doc.Len() == 0 {
			t.Fatal("accepted document has no nodes")
		}
		for i := 0; i < doc.Len(); i++ {
			ord := int32(i)
			n := s.Node(id, ord)
			if got := len(s.Tag(id, n.Tag)); got < 1 {
				t.Fatalf("Tag(%q) = %d refs for a present tag", n.Tag, got)
			}
			for _, c := range s.Children(id, ord) {
				if c <= ord || c >= int32(doc.Len()) {
					t.Fatalf("child %d of %d out of preorder range", c, ord)
				}
			}
			s.Content(id, ord)
		}
		for _, name := range s.Names() {
			if _, ok := s.Lookup(name); !ok {
				t.Fatalf("Lookup(%q) failed for a listed name", name)
			}
		}
	})
}
