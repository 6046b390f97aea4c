package remote

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// canonicalDocs are the documents this package writes: every edge sample
// and fuzz seed that encodes, and a 2000-task refresh.
func canonicalDocs(t testing.TB) [][]byte {
	var docs [][]byte
	samples := append(edgeSamples(), bigSample(2000))
	for _, seed := range sampleSeeds() {
		samples = append(samples, (&fuzzSrc{b: seed}).sample())
	}
	for _, ws := range samples {
		if b, err := ws.Encode(); err == nil {
			docs = append(docs, b)
		}
	}
	if len(docs) < 20 {
		t.Fatalf("only %d canonical documents", len(docs))
	}
	return docs
}

// foreignDocs rewrite a canonical document into ones this package never
// writes: each must take encoding/json's path, and answer as it does.
func foreignDocs(t testing.TB) [][]byte {
	base, err := testSample(7, 12.5).Encode()
	if err != nil {
		t.Fatal(err)
	}
	doc := string(base)
	indented, err := json.MarshalIndent(testSample(7, 12.5), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	docs := [][]byte{indented, []byte(doc + " "), []byte(doc + "x"), []byte(" " + doc)}
	for _, r := range [][2]string{
		{`{"v":1,"refresh":7`, `{"refresh":7,"v":1`},                        // reordered
		{`"machine":`, `"extra":[1,{"a":null}],"machine":`},                 // unknown key
		{`"machine":"sim test box"`, `"machine":null`},                      // null scalar
		{`"interval_s":2`, `"interval_s":null`},                             // null number
		{`{"v":1,`, `{"v":1,"v":1,`},                                        // duplicate key
		{`"user":"alice"`, "\"user\":\"al\xffice\""},                        // invalid UTF-8
		{`"user":"alice"`, `"user":"al\ud800ice"`},                          // lone surrogate
		{`"user":"alice"`, `"user":"\ud83d\ude00"`},                         // surrogate pair
		{`"user":"alice"`, `"user":"a\/b\u00E9\u003C` + "\u2028" + `"`},     // escapes this package does not write, raw U+2028
		{`"user":"alice"`, `"user":"a` + "\t" + `b"`},                       // raw control byte
		{`"user":"alice"`, `"user":"a\qb"`},                                 // bad escape
		{`"user":"alice"`, `"user":"a\u12"`},                                // short \u
		{`{"v":1,`, `{"v":1.0,`},                                            // fraction in an int
		{`{"v":1,`, `{"v":1e0,`},                                            // exponent in an int
		{`{"v":1,`, `{"v":-0,`},                                             // negative zero int
		{`{"v":1,`, `{"V":1,`},                                              // case-folded key
		{`"refresh":7`, `"refresh":-7`},                                     // negative uint
		{`"refresh":7`, `"refresh":18446744073709551616`},                   // uint overflow
		{`"pid":101`, `"pid":9223372036854775808`},                          // int overflow
		{`"interval_s":2`, `"interval_s":1e400`},                            // float overflow
		{`"interval_s":2`, `"interval_s":1e-400`},                           // float underflow
		{`"interval_s":2`, `"interval_s":02`},                               // leading zero
		{`"interval_s":2`, `"interval_s":2.`},                               // bare point
		{`"interval_s":2`, `"interval_s":-2.5E+3`},                          // capital exponent
		{`"time_s":12.5`, `"time_s":12.5,"dropped":0`},                      // optional key at its zero
		{`"monitored":true`, `"monitored":1`},                               // number for a bool
		{`"values":[0.7,2.25]`, `"values":[0.7,2.25,]`},                     // trailing comma
		{`"values":[0.7,2.25]`, `"values":[]`},                              // empty list
		{`"events":{"CYCLES":1000,"INSTRUCTIONS":700}`, `"events":{}`},      // empty map
		{`"events":{"CYCLES":1000,`, `"events":{"CYCLES":1000,"CYCLES":2,`}, // repeated name
		{`"columns":[`, `"columns":null,"columns":[`},                       // list key twice
		{`"rows":[`, `"rows":null}`},                                        // truncated
	} {
		if !strings.Contains(doc, r[0]) {
			t.Fatalf("base document lacks %q", r[0])
		}
		docs = append(docs, []byte(strings.Replace(doc, r[0], r[1], 1)))
	}
	return docs
}

// checkDecodeIdentity: Decode answers as json.Unmarshal followed by the
// version check — the same sample, nil-ness included, or an error where
// it errs — whether or not the one pass reads the document; and what the
// one pass accepts, json.Unmarshal reads the same.
func checkDecodeIdentity(t testing.TB, data []byte) {
	t.Helper()
	var want Sample
	wantErr := json.Unmarshal(data, &want)
	if s, ok := onePass(data); ok && (wantErr != nil || !reflect.DeepEqual(s, &want)) {
		t.Fatalf("one pass accepted %q\n got  %+v\n want %+v (%v)", data, s, &want, wantErr)
	}
	if wantErr == nil && (want.V < 1 || want.V > WireVersion) {
		wantErr = errNewer
	}
	got, err := Decode(data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("Decode(%q) error = %v, encoding/json's = %v", data, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, &want) {
		t.Fatalf("Decode(%q)\n got  %+v\n want %+v", data, got, &want)
	}
}

var errNewer = errors.New("wire version not supported")

// FuzzDecodeJSONIdentity: for any bytes, Decode equals json.Unmarshal
// plus the version check — and so it does for the document this package
// writes for the sample those bytes build (fuzzSrc), which is the one
// pass's own input.
func FuzzDecodeJSONIdentity(f *testing.F) {
	for _, doc := range canonicalDocs(f) {
		f.Add(doc)
	}
	for _, doc := range foreignDocs(f) {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeIdentity(t, data)
		if doc, err := (&fuzzSrc{b: data}).sample().Encode(); err == nil {
			if _, ok := onePass(doc); !ok {
				t.Fatalf("this package's own document fell back to encoding/json:\n%s", doc)
			}
			checkDecodeIdentity(t, doc)
		}
	})
}

// TestDecodeJSONOnePass: every document this package writes is read by
// the one pass, never by the fallback — without this, the fast path
// could quietly stop being taken.
func TestDecodeJSONOnePass(t *testing.T) {
	for i, doc := range canonicalDocs(t) {
		if _, ok := onePass(doc); !ok {
			t.Fatalf("canonical document %d fell back to encoding/json:\n%.300s", i, doc)
		}
	}
	for i, doc := range foreignDocs(t) {
		checkDecodeIdentity(t, doc)
		if _, ok := onePass(doc); ok && i < 4 {
			t.Fatalf("whitespace-carrying document %d read by the one pass", i)
		}
	}
}
