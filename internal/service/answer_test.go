package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"tlc"
)

// wireXML holds text that every escaping layer has to get right: quotes,
// a backslash, a tab and a newline, markup characters and U+2028/U+2029.
const wireXML = "<w><t>say \"hi\"\\ \t&lt;&amp;&gt; a\nb \u2028 \u2029 \u00e9</t></w>"

// legacyBody is what the handler wrote before it wrote answers by hand:
// encoding/json's encoding of a queryResponse, HTML escaping off.
func legacyBody(t *testing.T, out queryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryBodyBytes pins the bytes on the wire: for every Figure 15 query
// under TLC, OPT, GTP and TAX, an empty answer and an answer full of
// characters JSON must escape, the /query body equals encoding/json's
// encoding of the same response, with elapsed_ms and cache_hit copied
// from the body.
func TestQueryBodyBytes(t *testing.T) {
	db := tlc.Open()
	if err := db.LoadXMark("auction.xml", 0.02); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadXMLString("wire.xml", wireXML); err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, Config{DB: db})
	queries := map[string]string{
		"empty": `FOR $p IN document("auction.xml")//person WHERE $p/@id = "nobody" RETURN $p/name`,
		"wire":  `FOR $t IN document("wire.xml")//t RETURN <r a={$t/text()}>{$t}</r>`,
	}
	for _, q := range tlc.Workload() {
		queries[q.ID] = q.Text
	}
	for id, text := range queries {
		for _, engine := range []tlc.Engine{tlc.TLC, tlc.TLCOpt, tlc.GTP, tlc.TAX} {
			resp, body := postJSON(t, ts.URL+"/query", map[string]any{"query": text, "engine": engine.String()})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", id, engine, resp.StatusCode, body)
			}
			res, err := db.Query(text, tlc.WithEngine(engine))
			if err != nil {
				t.Fatal(err)
			}
			served := decode[queryResponse](t, body)
			want := queryResponse{
				Engine:    engine.String(),
				Count:     res.Len(),
				Results:   make([]string, res.Len()),
				CacheHit:  served.CacheHit,
				ElapsedMS: served.ElapsedMS,
			}
			for i := range want.Results {
				want.Results[i] = res.TreeXML(i)
			}
			if wantBody := legacyBody(t, want); !bytes.Equal(body, wantBody) {
				t.Errorf("%s/%s: body\n%s\nwant\n%s", id, engine, body, wantBody)
			}
			if id == "empty" && res.Len() != 0 || id == "wire" && res.Len() != 1 {
				t.Errorf("%s/%s: %d answers", id, engine, res.Len())
			}
		}
	}
}

// FuzzAnswerEscaping compares the hand-written envelope with encoding/json
// on arbitrary bytes, and on elapsed times of any whole number of
// nanoseconds.
func FuzzAnswerEscaping(f *testing.F) {
	for _, s := range []string{"", "plain", "\"\\", "\x00\x01\b\f\n\r\t\v\x1f\x7f", "\u2028\u2029", "\xff\xfe", "a\xc3", "\xef\xbf\xbd", "<&>", "\u00e9\U0001F600"} {
		f.Add([]byte(s), int64(1500))
	}
	f.Add([]byte("x"), int64(1))
	f.Add([]byte("x"), int64(-1)<<63)
	f.Fuzz(func(t *testing.T, data []byte, ns int64) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(string(data)); err != nil {
			t.Fatal(err)
		}
		want := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if got := appendJSONString(nil, data); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, encoding/json %s", data, got, want)
		}
		ms := float64(time.Duration(ns)) / float64(time.Millisecond)
		num, err := json.Marshal(ms)
		if err != nil {
			t.Fatal(err)
		}
		if got := strconv.AppendFloat(nil, ms, 'f', -1, 64); !bytes.Equal(got, num) {
			t.Errorf("elapsed_ms %v written as %s, encoding/json %s", ms, got, num)
		}
	})
}
