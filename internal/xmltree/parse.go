package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Parse reads an XML document from r and returns it as a Document named
// name. Comments, processing instructions and directives are skipped;
// whitespace-only character data between elements is dropped, matching the
// data model used by the paper's experiments.
func Parse(name string, r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	b := NewBuilder(name)
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse %s: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			b.OpenElement(t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attr(a.Name.Local, a.Value)
			}
			depth++
		case xml.EndElement:
			b.CloseElement()
			depth--
		case xml.CharData:
			if depth == 0 {
				continue
			}
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			b.TextNode(strings.TrimSpace(s))
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("xmltree: parse %s: unbalanced document", name)
	}
	doc, err := b.Done()
	if err != nil {
		return nil, err
	}
	if doc.Len() == 0 {
		return nil, fmt.Errorf("xmltree: parse %s: empty document", name)
	}
	return doc, nil
}

// ParseString is a convenience wrapper around Parse for string input.
func ParseString(name, s string) (*Document, error) {
	return Parse(name, strings.NewReader(s))
}

// WriteXML serializes the subtree rooted at ordinal to w as XML text.
// Attributes are emitted on the start tag; text content is escaped.
func (d *Document) WriteXML(w io.Writer, ordinal int32) error {
	_, err := w.Write(d.appendXML(nil, ordinal))
	return err
}

func (d *Document) appendXML(dst []byte, ordinal int32) []byte {
	n := &d.Nodes[ordinal]
	switch n.Kind {
	case Text:
		return AppendEscaped(dst, n.Value)
	case Attribute:
		// A bare attribute serializes as name="value"; this only happens
		// when an attribute node is itself the requested root.
		return AppendAttr(dst, n.Tag, n.Value)
	}
	dst = append(append(dst, '<'), n.Tag...)
	kids := d.Children(ordinal)
	body := kids[:0:0]
	for _, c := range kids {
		if d.Nodes[c].Kind == Attribute {
			dst = AppendAttr(append(dst, ' '), d.Nodes[c].Tag, d.Nodes[c].Value)
		} else {
			body = append(body, c)
		}
	}
	if len(body) == 0 {
		return append(dst, "/>"...)
	}
	dst = append(dst, '>')
	for _, c := range body {
		dst = d.appendXML(dst, c)
	}
	return append(append(append(dst, "</"...), n.Tag...), '>')
}

// AppendAttr appends the attribute named tag ("@name") with its escaped
// value as name="value".
func AppendAttr(dst []byte, tag, value string) []byte {
	dst = append(append(dst, tag[1:]...), `="`...)
	return append(AppendEscaped(dst, value), '"')
}

// AppendEscaped appends s to dst with the XML special characters escaped
// and each byte that is not valid UTF-8 replaced by U+FFFD. It is the one
// escaper of every serializer — the document's, the store's columnar one
// and the witness trees' — so all of them emit identical bytes.
func AppendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		esc, size := "", 1
		switch c := s[i]; {
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '&':
			esc = "&amp;"
		case c == '"':
			esc = "&quot;"
		case c >= utf8.RuneSelf:
			var r rune
			if r, size = utf8.DecodeRuneInString(s[i:]); r == utf8.RuneError && size == 1 {
				esc = "\uFFFD"
			}
		}
		if esc != "" {
			dst = append(append(dst, s[last:i]...), esc...)
			last = i + size
		}
		i += size
	}
	return append(dst, s[last:]...)
}
